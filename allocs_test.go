package baryon

import (
	"context"
	"math"
	"testing"

	"baryon/internal/experiment"
	"baryon/internal/obs"
	"baryon/internal/trace"
)

// TestSingleRunAllocs is the allocation gate on the simulator's hot path:
// Baryon on 505.mcf_r at benchConfig, the pair BenchmarkSingleRun times.
// Allocation counts of a deterministic run move by a few between runs,
// so unlike wall-clock time they can fail a build. Each limit is a
// recorded baseline plus 10% and half an allocation: cold 1253, traced
// 1252 and steady 21 allocations. Raise a limit only with the change that
// needs it.
func TestSingleRunAllocs(t *testing.T) {
	cfg := benchConfig()
	w, _ := trace.ByName("505.mcf_r")
	const window = 1000 // accesses per core in one steady-state window

	for _, c := range []struct {
		name   string
		limit  float64
		allocs func(*testing.T) float64
	}{
		// One whole run from construction to result.
		{"cold", 1378, func(t *testing.T) float64 {
			return testing.AllocsPerRun(2, func() {
				p := experiment.Pair{Cfg: cfg, Workload: w, Design: experiment.DesignBaryon}
				if _, err := experiment.RunPairCtx(context.Background(), p); err != nil {
					t.Fatal(err)
				}
			})
		}},
		// The same run with the request-lifecycle tracer at 1-in-64
		// sampling, as BenchmarkSingleRunTraced runs it.
		{"traced", 1377, func(t *testing.T) float64 {
			return testing.AllocsPerRun(2, func() {
				r := baryonRunner(cfg, w)
				r.SetTracer(obs.NewTracer(64, 0))
				if _, err := r.RunCtx(context.Background()); err != nil {
					t.Fatal(err)
				}
			})
		}},
		// Windows 7 and 8 of 1000 accesses per core, after a warm-up of
		// cfg.AccessesPerCore. Per-window counts are lumpy (single windows
		// range from about 10 to about 150 allocations), so the gate takes
		// the least mean over five fresh runners.
		{"steady", 23, func(t *testing.T) float64 {
			least := math.Inf(1)
			for range 5 {
				s := baryonRunner(cfg, w).Stepper()
				s.Window(cfg.AccessesPerCore)
				for range 5 {
					s.Window(window)
				}
				// AllocsPerRun's unmeasured warm-up call is window 6.
				least = min(least, testing.AllocsPerRun(2, func() { s.Window(window) }))
			}
			return least
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := c.allocs(t); got > c.limit {
				t.Errorf("%.0f allocations exceed the limit of %.0f", got, c.limit)
			} else {
				t.Logf("%.0f allocations (limit %.0f)", got, c.limit)
			}
		})
	}
}
