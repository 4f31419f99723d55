package fault

import (
	"testing"

	"baryon/internal/sim"
)

func newTestInjector(p Params, correct int, seed uint64) (*Injector, *sim.Stats) {
	st := sim.NewStats()
	return NewInjector(p, correct, seed, st.Scope("dev")), st
}

// TestDeterminism pins the determinism contract: the same params, seed and
// access sequence produce identical fault counters.
func TestDeterminism(t *testing.T) {
	run := func() string {
		in, st := newTestInjector(Params{BER: 1e-3}, 1, 42)
		for i := 0; i < 2000; i++ {
			addr := uint64(i%64) * 64
			in.OnRead(addr, 64)
			if i%3 == 0 {
				in.OnWrite(addr, 64)
			}
		}
		return st.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
	in, st := newTestInjector(Params{BER: 1e-3}, 1, 43)
	for i := 0; i < 2000; i++ {
		in.OnRead(uint64(i%64)*64, 64)
	}
	if st.Get("dev.fault.flips") == 0 {
		t.Fatal("BER 1e-3 over 2000 line reads never flipped a bit")
	}
}

// TestECCClassification checks the budget boundary: flip counts at or below
// the correction budget classify as Corrected, above as Uncorrectable.
func TestECCClassification(t *testing.T) {
	// A stuck-at line always exceeds the budget (correct+1 flips).
	in, st := newTestInjector(Params{StuckAt: []Region{{Addr: 0, Size: 64}}}, 2, 1)
	if got := in.OnRead(0, 64); got != Uncorrectable {
		t.Fatalf("stuck-at line classified %v, want Uncorrectable", got)
	}
	if st.Get("dev.fault.uncorrectable") != 1 || st.Get("dev.fault.stuckAtHits") != 1 {
		t.Fatalf("counters after stuck-at read: %s", st.String())
	}
	// Lines outside the stuck-at region with zero BER never fault.
	if got := in.OnRead(64, 64); got != None {
		t.Fatalf("clean line classified %v, want None", got)
	}
	// With a very high BER every line flips more bits than any sane budget.
	hot, _ := newTestInjector(Params{BER: 0.5}, 1, 1)
	if got := hot.OnRead(0, 64); got != Uncorrectable {
		t.Fatalf("BER 0.5 read classified %v, want Uncorrectable", got)
	}
	// Suppressed reads never fault regardless of params.
	hot.Suppress(true)
	if got := hot.OnRead(0, 64); got != None {
		t.Fatalf("suppressed read classified %v, want None", got)
	}
}

// TestQuarantine checks that quarantined lines stop faulting and remaps are
// counted once per line.
func TestQuarantine(t *testing.T) {
	in, st := newTestInjector(Params{StuckAt: []Region{{Addr: 0, Size: 128}}}, 1, 1)
	if got := in.OnRead(0, 128); got != Uncorrectable {
		t.Fatalf("stuck-at read classified %v", got)
	}
	in.Quarantine(0, 128)
	in.Quarantine(0, 128) // idempotent
	if got := in.QuarantinedLines(); got != 2 {
		t.Fatalf("QuarantinedLines = %d, want 2", got)
	}
	if got := st.Get("dev.fault.remaps"); got != 2 {
		t.Fatalf("remaps = %d, want 2", got)
	}
	if got := in.OnRead(0, 128); got != None {
		t.Fatalf("quarantined read classified %v, want None", got)
	}
}

// TestWearRamp checks the endurance model: lines below WearUnit writes keep
// the base BER, and each wear step adds WearRBERStep.
func TestWearRamp(t *testing.T) {
	in, st := newTestInjector(Params{WearUnit: 10, WearRBERStep: 1e-3}, 1, 1)
	if got := in.lineBER(0); got != 0 {
		t.Fatalf("fresh line BER = %g, want 0", got)
	}
	for i := 0; i < 25; i++ {
		in.OnWrite(0, 64)
	}
	// 25 writes / WearUnit 10 = 2 wear steps.
	if got, want := in.lineBER(0), 2e-3; got != want {
		t.Fatalf("worn line BER = %g, want %g", got, want)
	}
	if got := st.Get("dev.fault.wearSteps"); got != 2 {
		t.Fatalf("wearSteps = %d, want 2", got)
	}
	if got := st.Get("dev.fault.wearWrites"); got != 25 {
		t.Fatalf("wearWrites = %d, want 25", got)
	}
	// An unworn neighbour is unaffected.
	if got := in.lineBER(1); got != 0 {
		t.Fatalf("neighbour line BER = %g, want 0", got)
	}
}

// TestEnabled pins the zero-value-disables contract of Params and Config.
func TestEnabled(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Fatal("zero Config reports enabled")
	}
	cases := []Params{
		{BER: 1e-9},
		{StuckAt: []Region{{Addr: 0, Size: 64}}},
		{WearUnit: 10, WearRBERStep: 1e-6},
	}
	for i, p := range cases {
		if !p.Enabled() {
			t.Fatalf("case %d: params %+v report disabled", i, p)
		}
	}
	if (&Params{WearUnit: 10}).Enabled() {
		t.Fatal("wear unit without a RBER step reports enabled")
	}
	if got := c.CorrectBits(); got != 1 {
		t.Fatalf("default CorrectBits = %d, want 1", got)
	}
	if got := c.RetryPenaltyCycles(); got != 64 {
		t.Fatalf("default RetryPenaltyCycles = %d, want 64", got)
	}
	if got := c.RemapPenaltyCycles(); got != 512 {
		t.Fatalf("default RemapPenaltyCycles = %d, want 512", got)
	}
}

// QuarantinedLines returns the number of lines currently remapped to spares.
func (in *Injector) QuarantinedLines() int { return len(in.quarantined) }
