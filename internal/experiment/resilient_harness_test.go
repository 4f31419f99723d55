package experiment

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"baryon/internal/datagen"
	"baryon/internal/trace"
)

// panicSource is a workload that panics when the runner asks it for
// streams, inside the run a pair's panic boundary guards: the shape of bug
// panic isolation exists for, needing no config that validation lets
// through by mistake.
type panicSource struct{}

func (panicSource) SourceName() string                           { return "poisoned" }
func (panicSource) ValueMix() datagen.Mix                        { return datagen.Mix{} }
func (panicSource) Streams(int, uint64, uint64) []trace.Streamer { panic("poisoned workload") }

// TestPanicIsolation runs a grid with one poisoned pair and checks that the
// panic is contained to its slot while every other pair completes.
func TestPanicIsolation(t *testing.T) {
	cfg := parallelConfig()
	w, _ := trace.ByName("505.mcf_r")
	pairs := []Pair{
		{Cfg: cfg, Workload: w, Design: DesignSimple},
		{Cfg: cfg, Workload: w, Source: panicSource{}, Design: DesignBaryon},
		{Cfg: cfg, Workload: w, Design: DesignBaryon},
	}
	out := RunPairsCtx(context.Background(), Options{}, pairs)
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "panicked") {
		t.Fatalf("poisoned pair error = %v, want captured panic", out[1].Err)
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil {
			t.Fatalf("healthy pair %d failed: %v", i, out[i].Err)
		}
		if out[i].Result.Cycles == 0 {
			t.Fatalf("healthy pair %d produced no result", i)
		}
	}
}

// TestRunPairCtxErrors pins the error (not panic) contract of the validated
// single-run entry point.
func TestRunPairCtxErrors(t *testing.T) {
	cfg := parallelConfig()
	w, _ := trace.ByName("505.mcf_r")
	if _, err := RunPairCtx(context.Background(), Pair{Cfg: cfg, Workload: w, Design: "No-Such-Design"}); err == nil {
		t.Fatal("unknown design did not error")
	}
	// A replacement knob on a kind without one is rejected when the spec
	// is registered, so no run can name it.
	if err := Register(DesignSpec{
		Name:   "BadKnob-Baryon",
		Kind:   KindBaryon,
		Policy: PolicySpec{Replacement: "lru"},
	}); err == nil || !strings.Contains(err.Error(), "replacement-policy") {
		t.Fatalf("bad knob error = %v, want replacement-policy error", err)
	}
	if _, err := RunPairCtx(context.Background(), Pair{Cfg: cfg, Workload: w, Design: "BadKnob-Baryon"}); err == nil {
		t.Fatal("a rejected spec ran")
	}
	// A pre-cancelled context refuses to run at all.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunPairCtx(done, Pair{Cfg: cfg, Workload: w, Design: DesignSimple}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run error = %v, want context.Canceled", err)
	}
}

// TestCancellationMidSweep cancels a sweep partway through and checks the
// per-pair outcomes: pairs cut short or never started report the context's
// error, and the call returns promptly instead of finishing the grid.
func TestCancellationMidSweep(t *testing.T) {
	cfg := parallelConfig()
	cfg.AccessesPerCore = 200000 // long enough that cancellation lands mid-run
	w, _ := trace.ByName("505.mcf_r")
	var pairs []Pair
	for i := 0; i < 8; i++ {
		pairs = append(pairs, Pair{Cfg: cfg, Workload: w, Design: DesignSimple})
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	out := RunPairsCtx(ctx, Options{}, pairs)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled sweep still took %s", elapsed)
	}
	cancelledCount := 0
	for _, pr := range out {
		if errors.Is(pr.Err, context.Canceled) {
			cancelledCount++
		}
	}
	if cancelledCount == 0 {
		t.Fatal("no pair observed the cancellation")
	}
}

// TestStrictHarnessReturnsPairError: runPairs, the strict core of the
// Fig. 9/10 harnesses, returns the failing pair's error — here a pair whose
// workload panics — instead of panicking or dropping it.
func TestStrictHarnessReturnsPairError(t *testing.T) {
	cfg := parallelConfig()
	w := trace.Representative()[0]
	pairs := []Pair{
		{Cfg: cfg, Workload: w, Design: DesignSimple},
		{Cfg: cfg, Workload: w, Source: panicSource{}, Design: DesignDICE},
	}
	_, err := runPairs(context.Background(), Options{Workers: 2}, pairs)
	if err == nil || !strings.Contains(err.Error(), DesignDICE) || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("runPairs with a poisoned pair: err = %v, want the pair's captured panic", err)
	}
}

// TestFig3aHonoursRunContext: a stage-area harness stops under a cancelled
// ctx and returns the context's error instead of panicking or running every
// workload to completion.
func TestFig3aHonoursRunContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Fig3a(ctx, Options{Workers: 2}, parallelConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig3a under a cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestFig9HonoursRunContext is the grid-path (runGrid) twin of
// TestFig3aHonoursRunContext.
func TestFig9HonoursRunContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Fig9(ctx, Options{Workers: 2}, parallelConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig9 under a cancelled ctx: err = %v, want context.Canceled", err)
	}
}
