package experiment

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"baryon/internal/config"
	"baryon/internal/trace"
)

// registerPoisonedDesign registers a design that passes every load-time and
// spec-level validation but panics inside the controller factory (BlockBytes
// 0 divides by zero in the geometry math) — the shape of bug panic isolation
// exists for. Each test registers its own name; the registry is global, so
// a repeated run (-count) reuses the earlier registration.
func registerPoisonedDesign(t *testing.T, name string) {
	t.Helper()
	if _, ok := Lookup(name); ok {
		return
	}
	err := Register(DesignSpec{
		Name:      name,
		Kind:      KindBaryon,
		Overrides: config.Overrides{BlockBytes: config.Ptr[uint64](0)},
	})
	if err != nil {
		t.Fatalf("registering poisoned design: %v", err)
	}
}

// TestPanicIsolation runs a grid with one poisoned pair and checks that the
// panic is contained to its slot while every other pair completes.
func TestPanicIsolation(t *testing.T) {
	registerPoisonedDesign(t, "Poisoned-Isolation")
	cfg := parallelConfig()
	w, _ := trace.ByName("505.mcf_r")
	pairs := []Pair{
		{Cfg: cfg, Workload: w, Design: DesignSimple},
		{Cfg: cfg, Workload: w, Design: "Poisoned-Isolation"},
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
	// A replacement knob on a kind without one is a spec-level error.
	if err := Register(DesignSpec{
		Name:   "BadKnob-Baryon",
		Kind:   KindBaryon,
		Policy: PolicySpec{Replacement: "lru"},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := RunPairCtx(context.Background(), Pair{Cfg: cfg, Workload: w, Design: "BadKnob-Baryon"}); err == nil ||
		!strings.Contains(err.Error(), "replacement-policy") {
		t.Fatalf("bad knob error = %v, want replacement-policy error", err)
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

// TestStrictHarnessReturnsPairError: the Fig. 9/10 harness core, built on
// runPairs, returns the failing pair's error — here a design that panics in
// its factory — instead of panicking or dropping it.
func TestStrictHarnessReturnsPairError(t *testing.T) {
	registerPoisonedDesign(t, "Poisoned-Strict")
	workloads := trace.Representative()[:2]
	_, err := runMatrix(context.Background(), Options{Workers: 2}, parallelConfig(),
		workloads, []string{DesignSimple, "Poisoned-Strict"}, DesignSimple)
	if err == nil || !strings.Contains(err.Error(), "Poisoned-Strict") || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("runMatrix with a poisoned design: err = %v, want the pair's captured panic", err)
	}
}

// TestFig3aHonoursRunContext: a harness that drives its own runners (the
// forEachRun path) stops under a cancelled ctx and returns the context's
// error instead of panicking or running every workload to completion.
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

// TestForEachReraisesWorkerPanic: a panic on a pool worker surfaces on the
// calling goroutine, where the caller's recover (cmd/experiments'
// per-harness boundary) can contain it.
func TestForEachReraisesWorkerPanic(t *testing.T) {
	defer func() {
		if rec := recover(); rec != "boom" {
			t.Fatalf("recovered %v, want the worker's panic value", rec)
		}
	}()
	forEach(context.Background(), Options{Workers: 4}, 16, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}
