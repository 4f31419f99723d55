package mem

import (
	"testing"

	"baryon/internal/fault"
	"baryon/internal/sim"
)

func TestDDR4FasterThanNVM(t *testing.T) {
	stats := sim.NewStats()
	ddr := NewDevice(DDR4Config(), stats)
	nvm := NewDevice(NVMConfig(), stats)
	dDone := ddr.Access(0, 0, 64, false)
	nDone := nvm.Access(0, 0, 64, false)
	if dDone >= nDone {
		t.Fatalf("DDR4 read (%d cy) not faster than NVM read (%d cy)", dDone, nDone)
	}
}

func TestWriteSlowerThanRead(t *testing.T) {
	stats := sim.NewStats()
	nvm := NewDevice(NVMConfig(), stats)
	r := nvm.Access(0, 0, 64, false)
	nvm.Reset()
	w := nvm.Access(0, 0, 64, true)
	if w <= r {
		t.Fatalf("NVM write (%d) not slower than read (%d)", w, r)
	}
}

func TestRowBufferHit(t *testing.T) {
	stats := sim.NewStats()
	ddr := NewDevice(DDR4Config(), stats)
	ddr.Access(0, 0, 64, false) // opens the row
	if stats.Get("DDR4-3200.rowMisses") != 1 {
		t.Fatalf("first access should be a row miss")
	}
	// Same row, issue far in the future so the bank is idle.
	ddr.Access(100000, 64, 64, false)
	if stats.Get("DDR4-3200.rowHits") != 1 {
		t.Fatalf("second access to the open row should hit, got hits=%d misses=%d",
			stats.Get("DDR4-3200.rowHits"), stats.Get("DDR4-3200.rowMisses"))
	}
}

func TestBandwidthQueueing(t *testing.T) {
	stats := sim.NewStats()
	ddr := NewDevice(DDR4Config(), stats)
	// Saturate the device: 32 back-to-back 2 kB transfers at cycle 0.
	// Each stripes across the four channels, so the aggregate bandwidth is
	// 4 channels x 8 B/cycle: 64 kB / 32 B/cycle = 2048 cycles minimum.
	var last uint64
	for i := 0; i < 32; i++ {
		last = ddr.Access(0, uint64(i)*1024*4, 2048, false)
	}
	if last < 2048 {
		t.Fatalf("saturated device completed at %d, want >= 2048 (bandwidth not modeled)", last)
	}
}

func TestChannelsParallel(t *testing.T) {
	stats := sim.NewStats()
	ddr := NewDevice(DDR4Config(), stats)
	// Accesses on different channels at the same cycle should not queue on
	// each other.
	d1 := ddr.Access(0, 0, 2048, false)
	ddr.Reset()
	ddr.Access(0, 0, 2048, false)
	d2 := ddr.Access(0, 256, 2048, false) // different channel
	if d2 > d1+ddr.Config().RowMissLatency {
		t.Fatalf("parallel channels serialized: first=%d second=%d", d1, d2)
	}
}

func TestEnergyAccounting(t *testing.T) {
	stats := sim.NewStats()
	nvm := NewDevice(NVMConfig(), stats)
	nvm.Access(0, 0, 64, false)
	wantRead := float64(64*8) * 14.0
	if e := nvm.EnergyPJ(); e < wantRead || e > wantRead*1.1 {
		t.Fatalf("read energy %f pJ, want about %f", e, wantRead)
	}
	nvm.Access(0, 4096, 64, true)
	wantTotal := wantRead + float64(64*8)*21.0
	if e := nvm.EnergyPJ(); e < wantTotal {
		t.Fatalf("total energy %f pJ, want >= %f", e, wantTotal)
	}
}

func TestZeroSizeAccess(t *testing.T) {
	stats := sim.NewStats()
	ddr := NewDevice(DDR4Config(), stats)
	if done := ddr.Access(42, 0, 0, false); done != 42 {
		t.Fatalf("zero-size access advanced time: %d", done)
	}
	if c, zero := ddr.Counters(), (sim.Snapshot{}); zero.DeltaOf(c.BytesRead)+zero.DeltaOf(c.BytesWritten) != 0 {
		t.Fatal("zero-size access moved bytes")
	}
}

func TestNVMBandwidthGap(t *testing.T) {
	// The defining property of the hybrid system: the NVM has ~2.4x less
	// bandwidth per channel than DDR4. Issue identical streams and compare
	// completion.
	stats := sim.NewStats()
	ddr := NewDevice(DDR4Config(), stats)
	nvm := NewDevice(NVMConfig(), stats)
	var dLast, nLast uint64
	for i := 0; i < 64; i++ {
		addr := uint64(i) * 1024 * 4
		dLast = ddr.Access(0, addr, 2048, false)
		nLast = nvm.Access(0, addr, 2048, false)
	}
	if nLast < dLast*2 {
		t.Fatalf("NVM stream (%d) should take >= 2x DDR4 stream (%d)", nLast, dLast)
	}
}

func TestSlowPresets(t *testing.T) {
	stats := sim.NewStats()
	for _, name := range []string{"nvm", "optane", "pcm"} {
		cfg, ok := PresetByName(name)
		if !ok {
			t.Fatalf("%s: preset not registered", name)
		}
		d := NewDevice(cfg, stats)
		r := d.Access(0, 0, 64, false)
		d.Reset()
		w := d.Access(0, 0, 64, true)
		if w <= r {
			t.Fatalf("%s: write (%d) not slower than read (%d)", name, w, r)
		}
	}
	// PCM writes must be the most expensive of the three.
	if PCMConfig().WritePJPerBit <= NVMConfig().WritePJPerBit {
		t.Fatal("PCM write energy should exceed NVM")
	}
}

func TestResetClearsMaxQueueing(t *testing.T) {
	// Hammer one channel so demand accesses queue behind each other and
	// behind background traffic.
	d := NewDevice(DDR4Config(), sim.NewStats())
	d.AccessBackground(0, 0, 16*bgHighWater, true)
	for i := 0; i < 64; i++ {
		d.Access(0, uint64(i%2)*(DDR4Config().RowBufferBytes*32), 64, false)
	}
	fresh := NewDevice(DDR4Config(), sim.NewStats()).Access(0, 0, 64, false)
	if d.Access(0, 0, 64, false) <= fresh {
		t.Fatal("expected some demand queueing before reset")
	}
	// After Reset no queue is left: the same access completes as on a
	// fresh device.
	d.Reset()
	if got := d.Access(0, 0, 64, false); got != fresh {
		t.Fatalf("after Reset an access completes at %d, a fresh device's at %d", got, fresh)
	}
}

// EnergyPJ returns the accumulated access energy in picojoules. It is a
// thin read of the registry accumulator.
func (d *Device) EnergyPJ() float64 { return sim.Snapshot{}.DeltaOfFloat(d.energy) }

// Reset clears all timing state and the non-registry accumulators. The
// traffic/energy/latency counters live on the run's Stats registry and are
// reset there (Stats.Reset on the device's scope).
func (d *Device) Reset() {
	for i := range d.channels {
		d.channels[i].freeAt = 0
		d.channels[i].bgBytes = 0
		for j := range d.channels[i].banks {
			d.channels[i].banks[j] = bank{}
		}
	}
	d.lastFault = fault.None
	if d.link != nil {
		d.link.freeAt = 0
	}
}
