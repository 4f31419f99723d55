// Package baryon's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation section. Each benchmark regenerates its
// experiment at a reduced access budget and reports the experiment's
// headline metric via b.ReportMetric, so `go test -bench=. -benchmem`
// doubles as a fast end-to-end regeneration pass. The full-budget
// regeneration lives in cmd/experiments.
package baryon

import (
	"context"
	"runtime"
	"testing"
	"time"

	"baryon/internal/config"
	"baryon/internal/cpu"
	"baryon/internal/experiment"
	"baryon/internal/obs"
	"baryon/internal/trace"
)

// benchConfig returns the scaled configuration with a benchmark-friendly
// access budget.
func benchConfig() config.Config {
	cfg := config.Scaled()
	cfg.AccessesPerCore = 4000
	return cfg
}

// run regenerates one experiment with zero Options (one worker per CPU),
// failing b on any error, and returns its typed results.
func run[R any](b *testing.B, h func(context.Context, experiment.Options, config.Config) (R, *experiment.Table, error), cfg config.Config) R {
	b.Helper()
	r, _, err := h(context.Background(), experiment.Options{}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func BenchmarkTableI_Metadata(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.TableI()
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig3_StageBreakdown(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows := run(b, experiment.Fig3a, cfg)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
		// Report the mean committed-state hit ratio (the paper's headline:
		// post-commit misses drop below ~5%).
		sum := 0.0
		for _, r := range rows {
			sum += r.Breakdown.CHits
		}
		b.ReportMetric(sum/float64(len(rows)), "C-hit-ratio")
	}
}

func BenchmarkFig4_StagePhase(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res := run(b, experiment.Fig4, cfg)
		if len(res.Boxes) != 10 {
			b.Fatal("bad bucket count")
		}
		// The paper's claim: MPKI drops substantially from the first to the
		// second half of the stage phase.
		b.ReportMetric(res.Boxes[0].P50, "p50-mpki-start")
		b.ReportMetric(res.Boxes[9].P50, "p50-mpki-end")
	}
}

func BenchmarkFig9_CacheMode(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		m := run(b, experiment.Fig9, cfg)
		b.ReportMetric(m.GeoMean[experiment.DesignBaryon], "baryon-geomean")
		b.ReportMetric(m.GeoMean[experiment.DesignUnison], "unison-geomean")
		b.ReportMetric(m.GeoMean[experiment.DesignDICE], "dice-geomean")
	}
}

func BenchmarkFig10_FlatMode(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		m := run(b, experiment.Fig10, cfg)
		b.ReportMetric(m.GeoMean[experiment.DesignBaryonFA], "fa-over-hybrid2")
	}
}

func BenchmarkFig11_ServeBloat(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows := run(b, experiment.Fig11, cfg)
		if len(rows) != len(trace.All()) {
			b.Fatal("missing workloads")
		}
	}
}

func BenchmarkFig12_CompressionAblation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows := run(b, experiment.Fig12, cfg)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig13a_TwoLevelReplacement(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		run(b, experiment.Fig13a, cfg)
	}
}

func BenchmarkFig13b_SuperBlockSize(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		run(b, experiment.Fig13b, cfg)
	}
}

func BenchmarkFig13c_StageSize(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		run(b, experiment.Fig13c, cfg)
	}
}

func BenchmarkFig13d_CommitPolicy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		run(b, experiment.Fig13d, cfg)
	}
}

func BenchmarkEnergy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res := run(b, experiment.Energy, cfg)
		b.ReportMetric(res.SavingsVsUnison, "saving-vs-unison")
		b.ReportMetric(res.SavingsVsDICE, "saving-vs-dice")
	}
}

func BenchmarkExtra_AssocSweep(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		run(b, experiment.AssocSweep, cfg)
	}
}

func BenchmarkExtra_SubBlockSweep(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		run(b, experiment.SubBlockSweep, cfg)
	}
}

func BenchmarkExtra_CompressorComparison(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		run(b, experiment.CompressorComparison, cfg)
	}
}

func BenchmarkExtra_RemapCacheSweep(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows := run(b, experiment.RemapCacheSweep, cfg)
		// Report the biggest cache's mean hit rate (paper: >90%).
		sum, n := 0.0, 0
		for _, r := range rows {
			if r.Sets == 256 {
				sum += r.HitRate
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), "remap-hit-rate-32kB")
		}
	}
}

// BenchmarkFig9Parallel measures the worker-pool engine: a serial Fig9
// regeneration is timed once before the timer starts, then the parallel runs
// are measured, and the ratio is reported as speedup-vs-serial (1.0 on a
// single-CPU machine, approaching the worker count on larger ones).
func BenchmarkFig9Parallel(b *testing.B) {
	cfg := benchConfig()
	ctx := context.Background()
	fig9 := func(o experiment.Options) {
		if _, _, err := experiment.Fig9(ctx, o, cfg); err != nil {
			b.Fatal(err)
		}
	}

	serialStart := time.Now()
	fig9(experiment.Options{Workers: 1})
	serial := time.Since(serialStart)

	o := experiment.Options{Workers: runtime.GOMAXPROCS(0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig9(o)
	}
	parallel := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup-vs-serial")
	b.ReportMetric(float64(o.Workers), "workers")
}

// BenchmarkSingleRun measures the simulator's own throughput on one
// (workload, design) pair — useful for tracking the harness's performance.
// Tracing is disabled here; the observability hooks must keep this within
// noise of the pre-tracing baseline (nil-check fast path).
func BenchmarkSingleRun(b *testing.B) {
	cfg := benchConfig()
	w, _ := trace.ByName("505.mcf_r")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunPairCtx(context.Background(), experiment.Pair{Cfg: cfg, Workload: w, Design: experiment.DesignBaryon})
		if err != nil {
			b.Fatal(err)
		}
		if res.Cycles == 0 {
			b.Fatal("no cycles")
		}
	}
}

// BenchmarkSingleRunSteadyState isolates the post-construction hot path:
// one runner is warmed outside the timer, then fixed windows are replayed
// on the same Stepper. TestSingleRunAllocs gates the steady state's
// allocation count.
func BenchmarkSingleRunSteadyState(b *testing.B) {
	cfg := benchConfig()
	w, _ := trace.ByName("505.mcf_r")
	s := baryonRunner(cfg, w).Stepper()
	s.Window(cfg.AccessesPerCore) // fill caches, buffer pools and slabs
	const windowPerCore = 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Window(windowPerCore)
	}
	if s.Accesses() == 0 {
		b.Fatal("no accesses")
	}
}

// BenchmarkSingleRunTraced is the same run with the request-lifecycle
// tracer attached at the default 1-in-64 sampling; the delta against
// BenchmarkSingleRun is the cost of tracing.
func BenchmarkSingleRunTraced(b *testing.B) {
	cfg := benchConfig()
	w, _ := trace.ByName("505.mcf_r")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := baryonRunner(cfg, w)
		r.SetTracer(obs.NewTracer(64, 0))
		res, err := r.RunCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.Cycles == 0 {
			b.Fatal("no cycles")
		}
	}
}

// baryonRunner builds a runner for Baryon on w with the controller factory
// RunPairCtx uses.
func baryonRunner(cfg config.Config, w trace.Workload) *cpu.Runner {
	spec, _ := experiment.Lookup(experiment.DesignBaryon)
	return cpu.NewRunnerSource(cfg, w, experiment.FactorySpec(spec))
}
