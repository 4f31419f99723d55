package experiment

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/cpu"
	"baryon/internal/obs"
	"baryon/internal/trace"
)

// The harnesses in this package regenerate the paper's evaluation from large
// cartesian products of fully independent (config, workload, design)
// simulations. This file is the execution engine they all share: a worker
// pool that fans the runs out across cores while keeping the output
// deterministic — every result is slotted by its input index, so tables and
// figures are byte-identical to a serial run regardless of completion order.

// Options configures one batch of runs. The zero value runs one worker per
// CPU and observes nothing; every batch entry point takes it by value, so
// concurrent batches in one process (a CLI export beside a server job)
// never see each other's settings.
type Options struct {
	// Workers is the worker count: <= 0 means one per available CPU
	// (runtime.GOMAXPROCS), 1 forces fully serial execution.
	Workers int
	// Observe, when set, receives every successfully completed pair of a
	// RunPairsCtx batch as it finishes, before the batch returns — the seam
	// export layers (e.g. per-run report bundles) use to see each
	// cpu.Result while its Stats registry is still reachable. It runs on
	// worker goroutines, possibly concurrently, and must be goroutine-safe;
	// failed pairs are not observed, and a panicking observer fails only
	// its own pair.
	Observe func(Pair, PairResult)
}

// workers resolves o.Workers for a batch of n jobs: a non-positive count
// becomes one per available CPU, and no batch gets more workers than jobs.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// forEach invokes fn(i) for every i in [0, n) using o.Workers workers. fn
// must write its outputs to slots indexed by i only, and must not panic;
// under that contract the observable result is identical to the serial
// loop. With one worker (or one job) it degenerates to the plain loop, with
// zero goroutine overhead. Workers stop pulling new indices once ctx is
// cancelled (indices already running finish via the runner's own
// cancellation checks).
func forEach(ctx context.Context, o Options, n int, fn func(i int)) {
	workers := o.workers(n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// RunObs optionally attaches live instrumentation to one pair's runner —
// the seam the service layer and cmd/baryonsim use to stream status and
// request lifecycles out of a run without touching its registry, and Fig. 4
// uses to sample stage phases.
type RunObs struct {
	// Tracer samples request lifecycles into a ring buffer (obs.Tracer).
	Tracer *obs.Tracer
	// Introspector receives RunStatus snapshots from the run goroutine.
	Introspector *obs.Introspector
	// StagePhase receives the run's Fig. 4 stage-phase MPKI samples; only
	// designs whose controller runs a stage area (Baryon and Hybrid2 with
	// useStageArea on) can be sampled.
	StagePhase *core.StagePhaseSampler
}

// Pair is one independent simulation job: a full configuration (so sweeps
// can mutate per-job copies), a workload and a design name.
type Pair struct {
	Cfg      config.Config
	Workload trace.Workload
	Design   string
	// Source optionally replaces the workload's synthetic generator with a
	// recorded access stream (e.g. cmd/baryonsim -trace-file); Workload
	// still names the run and supplies the value mix.
	Source trace.Source
	// Obs optionally attaches live instrumentation to this pair's runner.
	Obs *RunObs
}

// PairResult is the outcome of one job in a resilient run: the metrics on
// success, or the error that stopped the job — a bad spec, a panic captured
// by the worker's isolation boundary, or the run context's cancellation
// error for jobs that were cut short or never started.
type PairResult struct {
	Result cpu.Result
	Err    error
}

// runPairIsolated executes one job, and observes it on success, behind a
// panic boundary: a panicking controller, workload or observer poisons only
// its own slot, never the sweep.
func runPairIsolated(ctx context.Context, o Options, p Pair) (pr PairResult) {
	defer func() {
		if rec := recover(); rec != nil {
			pr.Err = fmt.Errorf("experiment: %s/%s panicked: %v\n%s",
				p.Workload.Name, p.Design, rec, debug.Stack())
		}
	}()
	pr.Result, pr.Err = RunPairCtx(ctx, p)
	if o.Observe != nil && pr.Err == nil {
		o.Observe(p, pr)
	}
	return pr
}

// RunPairCtx executes one fully-described pair — including its optional
// trace source and live instrumentation — with error reporting and
// cooperative cancellation. An unknown design or an invalid spec returns an
// error instead of panicking; a cancelled ctx stops the replay and returns
// the partial metrics with ctx's error.
func RunPairCtx(ctx context.Context, p Pair) (cpu.Result, error) {
	spec, ok := Lookup(p.Design)
	if !ok {
		return cpu.Result{}, UnknownDesignError(p.Design)
	}
	// The design's overrides reach the whole run (cache hierarchy, OS space,
	// access budget), not only the controller that FactorySpec builds.
	cfg, err := resolve(spec, p.Cfg)
	if err != nil {
		return cpu.Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return cpu.Result{}, err
	}
	src := p.Source
	if src == nil {
		src = p.Workload
	}
	r := cpu.NewRunnerSource(cfg, src, FactorySpec(spec))
	r.SetDesign(p.Design)
	if o := p.Obs; o != nil {
		if o.Tracer != nil {
			r.SetTracer(o.Tracer)
		}
		if o.Introspector != nil {
			r.SetIntrospector(o.Introspector)
		}
		if o.StagePhase != nil {
			// Only the controller knows its effective config, so it
			// decides whether it has a stage area to sample.
			c, ok := r.Controller().(interface {
				SetStagePhaseSampler(*core.StagePhaseSampler) error
			})
			if !ok {
				return cpu.Result{}, fmt.Errorf("experiment: design %s has no stage area to sample", p.Design)
			}
			if err := c.SetStagePhaseSampler(o.StagePhase); err != nil {
				return cpu.Result{}, fmt.Errorf("experiment: design %s: %w", p.Design, err)
			}
		}
	}
	return r.RunCtx(ctx)
}

// RunPairsCtx executes every job on o.Workers workers and returns per-job
// outcomes in input order, calling o.Observe for each success. Each job
// builds its own runner, store, controller and statistics, so jobs share no
// mutable state; successful slots are bit-identical to calling RunPairCtx in
// a loop. A job that fails — invalid design, panic, cancellation — reports
// through its slot's Err while every other job completes; jobs not yet
// started when ctx is cancelled get ctx's error without running.
func RunPairsCtx(ctx context.Context, o Options, pairs []Pair) []PairResult {
	out := make([]PairResult, len(pairs))
	ran := make([]bool, len(pairs))
	forEach(ctx, o, len(pairs), func(i int) {
		ran[i] = true
		out[i] = runPairIsolated(ctx, o, pairs[i])
	})
	for i := range out {
		if !ran[i] {
			out[i].Err = ctx.Err()
		}
	}
	return out
}

// runPairs is the strict form of RunPairsCtx the harnesses build on: the
// results in input order, or the first pair's error.
func runPairs(ctx context.Context, o Options, pairs []Pair) ([]cpu.Result, error) {
	out := make([]cpu.Result, len(pairs))
	for i, pr := range RunPairsCtx(ctx, o, pairs) {
		if pr.Err != nil {
			return nil, fmt.Errorf("experiment: pair %s/%s failed: %w",
				pairs[i].Workload.Name, pairs[i].Design, pr.Err)
		}
		out[i] = pr.Result
	}
	return out, nil
}

// runGrid runs the full workloads x designs grid under cfg and returns
// results indexed as [workload][design], matching the input slices. Like
// runPairs it is strict: the first pair error is returned.
func runGrid(ctx context.Context, o Options, cfg config.Config, workloads []trace.Workload, designs []string) ([][]cpu.Result, error) {
	pairs := make([]Pair, 0, len(workloads)*len(designs))
	for _, w := range workloads {
		for _, d := range designs {
			pairs = append(pairs, Pair{Cfg: cfg, Workload: w, Design: d})
		}
	}
	flat, err := runPairs(ctx, o, pairs)
	if err != nil {
		return nil, err
	}
	out := make([][]cpu.Result, len(workloads))
	for wi := range workloads {
		out[wi] = flat[wi*len(designs) : (wi+1)*len(designs)]
	}
	return out, nil
}
