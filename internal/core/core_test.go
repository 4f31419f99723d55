package core

import (
	"bytes"
	"fmt"
	"testing"

	"baryon/internal/config"
	"baryon/internal/datagen"
	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// testConfig returns a tiny configuration that still exercises every
// structure: multiple sets, a small stage area, heavy conflict pressure.
func testConfig() config.Config {
	c := config.Scaled()
	c.FastBytes = 1 << 20    // 1 MB fast
	c.StageBytes = 128 << 10 // 64 stage frames, 16 sets
	c.SlowBytes = 8 << 20    // 8 MB slow
	c.AccessesPerCore = 0
	return c
}

// refModel is the functional reference: the latest value of every line.
type refModel struct {
	mix    datagen.Mix
	writes map[uint64][]byte
}

func newRef(mix datagen.Mix) *refModel {
	return &refModel{mix: mix, writes: make(map[uint64][]byte)}
}

func (r *refModel) line(addr uint64) []byte {
	if d, ok := r.writes[addr]; ok {
		return d
	}
	var blk [hybrid.BlockSize]byte
	sb := hybrid.BlockOf(addr)
	datagen.Filler(r.mix)(uint64(sb), &blk)
	off := addr % hybrid.BlockSize
	return blk[off : off+64]
}

func (r *refModel) write(addr uint64, data []byte) {
	r.writes[addr] = append([]byte(nil), data...)
}

// runIntegrity drives random traffic at the controller and verifies that
// every read and every prefetched line matches the reference, that
// PeekLine agrees for every touched line, and that the structural
// invariants hold.
func runIntegrity(t *testing.T, cfg config.Config, accesses int, seed uint64) *Controller {
	t.Helper()
	mix := datagen.Mix{Weights: [5]float64{1, 1, 1, 1, 1}}
	store := hybrid.NewStore(func(b hybrid.BlockID, dst *[hybrid.BlockSize]byte) {
		datagen.Filler(mix)(uint64(b), dst)
	})
	stats := sim.NewStats()
	c := New(cfg, store, stats)
	ref := newRef(mix)
	rng := sim.NewRNG(seed)

	osBytes := cfg.OSBlocks() * cfg.BlockBytes
	footprint := osBytes / 4 // concentrate traffic to force evictions
	touched := make(map[uint64]bool)
	now := uint64(0)
	for i := 0; i < accesses; i++ {
		addr := (rng.Uint64n(footprint)) &^ 63
		write := rng.Bool(0.3)
		c.AddInstructions(10)
		if write {
			data := make([]byte, 64)
			for j := range data {
				data[j] = byte(rng.Uint64() >> 32)
			}
			// Keep some writes compressible so CF transitions both ways.
			if rng.Bool(0.5) {
				for j := range data {
					data[j] = 0
				}
				data[0] = byte(rng.Uint64() >> 32)
			}
			ref.write(addr, data)
			c.Access(now, addr, true, data)
		} else {
			res := c.Access(now, addr, false, nil)
			if got := c.PeekLine(addr); !bytes.Equal(got, ref.line(addr)) {
				t.Fatalf("access %d: read %x mismatch\n got %x\nwant %x", i, addr, got, ref.line(addr))
			}
			for _, p := range res.Prefetched {
				if p%hybrid.CachelineSize != 0 || p == addr || p/cfg.BlockBytes != addr/cfg.BlockBytes {
					t.Fatalf("access %d: prefetched %x is not another line of %x's block", i, p, addr)
				}
				if !bytes.Equal(c.PeekLine(p), ref.line(p)) {
					t.Fatalf("access %d: prefetched line %x mismatch", i, p)
				}
			}
		}
		touched[addr] = true
		now += 50
		if i%2048 == 2047 {
			if msg := c.CheckInvariants(); msg != "" {
				t.Fatalf("access %d: invariant violated: %s", i, msg)
			}
		}
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatalf("final invariant violated: %s", msg)
	}
	for addr := range touched {
		if got := c.PeekLine(addr); !bytes.Equal(got, ref.line(addr)) {
			t.Fatalf("PeekLine(%x) mismatch\n got %x\nwant %x", addr, got, ref.line(addr))
		}
	}
	return c
}

func TestIntegrityCacheMode(t *testing.T) {
	c := runIntegrity(t, testConfig(), 30000, 42)
	if c.stats.Get("baryon.commits") == 0 {
		t.Fatal("no commits happened; test did not exercise the commit path")
	}
	if c.stats.Get("baryon.fast.hits") == 0 {
		t.Fatal("no committed-area hits; test did not exercise case 2")
	}
}

func TestIntegrityFlatMode(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = config.ModeFlat
	c := runIntegrity(t, cfg, 30000, 43)
	if c.stats.Get("baryon.swap.spread")+c.stats.Get("baryon.swap.threeWay") == 0 {
		t.Fatal("flat mode never swapped")
	}
}

func TestIntegrityFullyAssociative(t *testing.T) {
	cfg := testConfig()
	cfg.FullyAssociative = true
	runIntegrity(t, cfg, 20000, 44)
}

func TestIntegrityFlatFullyAssociative(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = config.ModeFlat
	cfg.FullyAssociative = true
	runIntegrity(t, cfg, 20000, 45)
}

func TestIntegrity64BVariant(t *testing.T) {
	cfg := testConfig()
	cfg.BlockBytes = 512
	cfg.SubBlockBytes = 64
	runIntegrity(t, cfg, 20000, 46)
}

func TestIntegrityUnaligned(t *testing.T) {
	cfg := testConfig()
	cfg.CachelineAligned = false
	runIntegrity(t, cfg, 20000, 47)
}

func TestIntegrityNoZeroOpt(t *testing.T) {
	cfg := testConfig()
	cfg.ZeroBlockOpt = false
	runIntegrity(t, cfg, 20000, 48)
}

func TestIntegrityNoStageArea(t *testing.T) {
	cfg := testConfig()
	cfg.UseStageArea = false
	runIntegrity(t, cfg, 20000, 49)
}

func TestIntegrityNoTwoLevel(t *testing.T) {
	cfg := testConfig()
	cfg.TwoLevelReplacement = false
	runIntegrity(t, cfg, 20000, 50)
}

func TestIntegrityCommitAll(t *testing.T) {
	cfg := testConfig()
	cfg.CommitAll = true
	runIntegrity(t, cfg, 20000, 51)
}

func TestIntegrityKInfinity(t *testing.T) {
	cfg := testConfig()
	cfg.CommitK = -1
	runIntegrity(t, cfg, 20000, 52)
}

func TestIntegrityNoCompressedWriteback(t *testing.T) {
	cfg := testConfig()
	cfg.CompressedWriteback = false
	runIntegrity(t, cfg, 20000, 53)
}

func TestZeroBlockService(t *testing.T) {
	// An all-zero store: reads must be served as zeros and the Z path used.
	cfg := testConfig()
	store := hybrid.NewStore(nil) // zero fill
	stats := sim.NewStats()
	c := New(cfg, store, stats)
	now := uint64(0)
	for i := 0; i < 5000; i++ {
		addr := uint64(i%512) * 64
		c.Access(now, addr, false, nil)
		for _, b := range c.PeekLine(addr) {
			if b != 0 {
				t.Fatal("zero block served non-zero data")
			}
		}
		now += 50
	}
	if stats.Get("baryon.servedZero") == 0 {
		t.Fatal("Z-bit path never used on an all-zero store")
	}
}

func TestCounterSanity(t *testing.T) {
	c := runIntegrity(t, testConfig(), 15000, 54)
	s := c.stats
	if s.Get("baryon.accesses") != 15000 {
		t.Fatalf("accesses=%d, want 15000", s.Get("baryon.accesses"))
	}
	reads := s.Get("baryon.reads")
	served := s.Get("baryon.servedFast") + s.Get("baryon.servedSlow")
	if served != reads {
		t.Fatalf("served (%d) != reads (%d)", served, reads)
	}
	for _, name := range []string{"DDR4-3200.bytesRead", "NVM.bytesRead", "baryon.stage.hits"} {
		if s.Get(name) == 0 {
			t.Fatalf("counter %s is zero", name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	collect := func() string {
		c := runIntegrity(t, testConfig(), 8000, 99)
		return c.stats.String()
	}
	if a, b := collect(), collect(); a != b {
		t.Fatalf("two identical runs diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestNameVariants(t *testing.T) {
	cases := []struct {
		mut  func(*config.Config)
		want string
	}{
		{func(c *config.Config) {}, "Baryon"},
		{func(c *config.Config) { c.FullyAssociative = true }, "Baryon-FA"},
		{func(c *config.Config) { c.BlockBytes = 512; c.SubBlockBytes = 64 }, "Baryon-64B"},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.mut(&cfg)
		c := New(cfg, hybrid.NewStore(nil), sim.NewStats())
		if got := c.Name(); got != tc.want {
			t.Errorf("Name()=%q, want %q", got, tc.want)
		}
	}
}

func TestTableIBudgets(t *testing.T) {
	// Section III-B storage claims at paper scale: stage tag array 448 kB,
	// remap table ~0.1% of capacity, remap cache 32 kB.
	cfg := config.PaperScale()
	if got := cfg.StageTagArrayBytes(); got != 448*1024 {
		t.Fatalf("stage tag array = %d B, want 448 kB", got)
	}
	table := cfg.RemapTableBytes()
	total := cfg.FastBytes + cfg.SlowBytes
	frac := float64(table) / float64(total)
	if frac > 0.002 || frac < 0.0004 {
		t.Fatalf("remap table fraction %.5f, want ~0.001", frac)
	}
	if sets := cfg.StageSets(); sets != 8192 {
		t.Fatalf("stage sets = %d, want 8192 (Table I)", sets)
	}
}

func ExampleController_Name() {
	c := New(testConfig(), hybrid.NewStore(nil), sim.NewStats())
	fmt.Println(c.Name())
	// Output: Baryon
}
