package mem

import (
	"testing"

	"baryon/internal/sim"
)

// cxlTestConfig returns NVM media behind a small expander link so link
// effects dominate quickly in tests.
func cxlTestConfig(p CXLParams) Config {
	cfg := NVMConfig()
	cfg.Name = "CXL-TEST"
	cfg.CXL = &p
	return cfg
}

// TestCXLZeroConfigNoOp pins the back-compat contract: a nil CXL pointer and
// zero-valued params must behave bit-identically to a device without the
// model — same completion times, same counters, no extra metrics registered.
func TestCXLZeroConfigNoOp(t *testing.T) {
	run := func(cfg Config) (*Device, *sim.Stats) {
		stats := sim.NewStats()
		d := NewDevice(cfg, stats)
		var done uint64
		for i := uint64(0); i < 200; i++ {
			addr := (i * 977) % (1 << 20)
			if end := d.Access(i*7, addr, 64, i%3 == 0); end > done {
				done = end
			}
			if i%5 == 0 {
				d.AccessBackground(i*7, addr+4096, 2048, true)
			}
		}
		d.Counters().Reads.Add(done) // fold timing into a comparable counter
		return d, stats
	}

	base := NVMConfig()
	base.Name = "CXL-TEST"
	_, wantStats := run(base)
	for _, cfg := range []Config{cxlTestConfig(CXLParams{}), func() Config {
		c := base
		c.CXL = nil
		return c
	}()} {
		d, stats := run(cfg)
		if d.HasCXL() {
			t.Fatalf("zero-valued CXLParams must not enable the link model")
		}
		for _, name := range wantStats.Names() {
			if got, want := stats.Get(name), wantStats.Get(name); got != want {
				t.Fatalf("counter %s: got %d, want %d", name, got, want)
			}
		}
		if got, want := len(stats.HistNames()), len(wantStats.HistNames()); got != want {
			t.Fatalf("histogram count: got %d, want %d", got, want)
		}
	}
}

// TestCXLLinkFIFOOrdering checks the link queue is FIFO: transfers admitted
// in issue order clear the link in that order, so equal-size reads issued at
// the same cycle complete in strictly non-decreasing times, each at least
// one link occupancy after the previous.
func TestCXLLinkFIFOOrdering(t *testing.T) {
	stats := sim.NewStats()
	d := NewDevice(cxlTestConfig(CXLParams{
		LinkLatencyCycles: 96,
		LinkBytesPerCycle: 4.0,
	}), stats)

	// Same bank/row so media timing cannot reorder anything.
	var prev uint64
	for i := 0; i < 32; i++ {
		done := d.Access(0, 0, 64, false)
		if done < prev {
			t.Fatalf("access %d completed at %d, before predecessor at %d", i, done, prev)
		}
		if i > 0 && done-prev < uint64(64/4.0) {
			t.Fatalf("access %d completed only %d cycles after predecessor; link occupancy is 16",
				i, done-prev)
		}
		prev = done
	}

	// A single read must pay the request and response flit latencies on top
	// of the media path.
	d.Reset()
	stats2 := sim.NewStats()
	bare := NewDevice(NVMConfig(), stats2)
	withLink := d.Access(0, 1<<16, 64, false)
	direct := bare.Access(0, 1<<16, 64, false)
	if withLink < direct+2*96 {
		t.Fatalf("read through link done at %d; want >= direct %d + 2*96", withLink, direct)
	}
}

// TestCXLConservation checks the model moves bytes, it does not create or
// destroy them: media byte counters match a direct-attached device under the
// same access sequence, and the link counter equals total demand+background
// bytes offered.
func TestCXLConservation(t *testing.T) {
	type dev struct {
		d     *Device
		stats *sim.Stats
	}
	mk := func(cfg Config) dev {
		s := sim.NewStats()
		return dev{NewDevice(cfg, s), s}
	}
	linked := mk(cxlTestConfig(CXLParams{LinkLatencyCycles: 50, LinkBytesPerCycle: 2.0, InternalBytesPerCycle: 3.0}))
	direct := mk(Config{Name: "CXL-TEST", Channels: 4, Banks: 8, RowHitLatency: 246,
		RowMissLatency: 246, WriteLatency: 492, BytesPerCycle: 3.33, RowBufferBytes: 2048,
		ReadPJPerBit: 14, WritePJPerBit: 21})

	var offered uint64
	for i := uint64(0); i < 300; i++ {
		addr := (i * 4093) % (1 << 22)
		size := uint64(64)
		if i%7 == 0 {
			size = 2048
		}
		write := i%4 == 0
		linked.d.Access(i*11, addr, size, write)
		direct.d.Access(i*11, addr, size, write)
		offered += size
		if i%3 == 0 {
			linked.d.AccessBackground(i*11, addr+8192, 512, true)
			direct.d.AccessBackground(i*11, addr+8192, 512, true)
			offered += 512
		}
	}
	for _, name := range []string{"CXL-TEST.bytesRead", "CXL-TEST.bytesWritten",
		"CXL-TEST.reads", "CXL-TEST.writes"} {
		if got, want := linked.stats.Get(name), direct.stats.Get(name); got != want {
			t.Fatalf("%s: linked %d, direct %d", name, got, want)
		}
	}
	if got := linked.stats.Get("CXL-TEST.cxlLinkBytes"); got != offered {
		t.Fatalf("cxlLinkBytes = %d, want offered %d", got, offered)
	}
	// Without compression the internal path carries exactly the link bytes.
	if got := linked.stats.Get("CXL-TEST.cxlInternalBytes"); got != offered {
		t.Fatalf("cxlInternalBytes = %d, want %d without compression", got, offered)
	}
}

// TestCXLExpanderCompression checks expander-side compression shrinks only
// the internal path: link bytes stay raw, internal bytes drop on
// compressible content, and without a probe the estimate falls back to raw.
func TestCXLExpanderCompression(t *testing.T) {
	mk := func() (*Device, *sim.Stats) {
		s := sim.NewStats()
		return NewDevice(cxlTestConfig(CXLParams{
			LinkLatencyCycles:     50,
			LinkBytesPerCycle:     4.0,
			InternalBytesPerCycle: 4.0,
			Compression:           "best",
		}), s), s
	}

	// Zero-filled lines compress hard under FPC.
	zeros := make([]byte, 64)
	d, stats := mk()
	d.SetContentProbe(func(addr, size uint64) []byte { return zeros })
	for i := uint64(0); i < 64; i++ {
		d.Access(0, i*64, 64, false)
	}
	link := stats.Get("CXL-TEST.cxlLinkBytes")
	internal := stats.Get("CXL-TEST.cxlInternalBytes")
	if link != 64*64 {
		t.Fatalf("cxlLinkBytes = %d, want %d (link always carries raw bytes)", link, 64*64)
	}
	if internal >= link {
		t.Fatalf("cxlInternalBytes = %d, want < link bytes %d on zero-filled lines", internal, link)
	}

	// No probe attached: fall back to the uncompressed size.
	d2, stats2 := mk()
	for i := uint64(0); i < 64; i++ {
		d2.Access(0, i*64, 64, false)
	}
	if got := stats2.Get("CXL-TEST.cxlInternalBytes"); got != 64*64 {
		t.Fatalf("cxlInternalBytes without probe = %d, want raw %d", got, 64*64)
	}
}

// TestPresetRegistry pins the strict preset lookup the config layer
// validates against.
func TestPresetRegistry(t *testing.T) {
	for _, name := range Presets() {
		cfg, ok := PresetByName(name)
		if !ok || cfg.Name == "" {
			t.Fatalf("preset %q did not resolve", name)
		}
	}
	if _, ok := PresetByName("bogus"); ok {
		t.Fatalf("unknown preset must not resolve")
	}
	if got := len(Presets()); got < 7 {
		t.Fatalf("expected at least 7 registered presets, got %d", got)
	}
	for _, cfg := range []Config{CXLDRAMConfig(), CXLIBEXConfig()} {
		if !cfg.CXL.Enabled() {
			t.Fatalf("preset %s should enable the CXL model", cfg.Name)
		}
	}
	if !ValidCXLCompression("best") || ValidCXLCompression("zip") {
		t.Fatalf("ValidCXLCompression accepts the wrong set")
	}
}
