package experiment

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"baryon/internal/config"
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

// parallelism holds the configured worker count; 0 means "one worker per
// available CPU" (runtime.GOMAXPROCS).
var parallelism atomic.Int32

// SetParallelism sets the worker count used by RunPairs/RunMatrix and every
// harness built on them. n <= 0 restores the default (one worker per CPU);
// n == 1 forces fully serial execution.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int32(n))
}

// Parallelism returns the effective worker count.
func Parallelism() int {
	if v := parallelism.Load(); v > 0 {
		return int(v)
	}
	return runtime.GOMAXPROCS(0)
}

// runContext holds the package-level context consulted by the legacy
// (context-free) entry points, so existing harness code can be made
// cancellable from one place. The context lives in a single-field struct
// because atomic.Value requires a consistent concrete type and contexts
// come in many.
type ctxBox struct{ ctx context.Context }

var runContext atomic.Value

func init() { runContext.Store(ctxBox{context.Background()}) }

// SetRunContext installs the context the legacy RunPairs/RunMatrix/harness
// entry points run under. The default is context.Background() (never
// cancelled, zero overhead). Commands that own a shutdown context call this
// once at startup; new code should prefer the explicit ...Ctx variants.
func SetRunContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	runContext.Store(ctxBox{ctx})
}

// RunContext returns the context installed by SetRunContext.
func RunContext() context.Context {
	return runContext.Load().(ctxBox).ctx
}

// forEach invokes fn(i) for every i in [0, n) using the configured worker
// count. fn must write its outputs to slots indexed by i only; under that
// contract the observable result is identical to the serial loop. With one
// worker (or one job) it degenerates to the plain loop, with zero goroutine
// overhead. Workers stop pulling new indices once ctx is cancelled (indices
// already running finish via the runner's own cancellation checks). A panic
// in fn stops the other workers pulling indices and is re-raised on the
// calling goroutine once they return, so the caller's recover sees it
// exactly as in the serial loop.
func forEach(ctx context.Context, n int, fn func(i int)) {
	workers := Parallelism()
	if workers > n {
		workers = n
	}
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
		next     atomic.Int64
		wg       sync.WaitGroup
		once     sync.Once
		panicked any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { panicked = p })
					next.Store(int64(n))
				}
			}()
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
	if panicked != nil {
		panic(panicked)
	}
}

// forEachRun is forEach under RunContext() for harnesses that drive their
// own runners. fn runs index i under ctx; the first failure — fn's error, or
// the context stopping the loop before i ran — escalates to a panic, the
// strict contract RunPairs keeps.
func forEachRun(n int, fn func(ctx context.Context, i int) error) {
	ctx := RunContext()
	errs := make([]error, n)
	ran := make([]bool, n)
	forEach(ctx, n, func(i int) {
		ran[i] = true
		errs[i] = fn(ctx, i)
	})
	for i, err := range errs {
		if !ran[i] {
			err = ctx.Err()
		}
		if err != nil {
			panic(fmt.Errorf("experiment: run %d of %d failed: %w", i+1, n, err))
		}
	}
}

// pairObservers is the registry behind AddPairObserver: every installed
// observer keyed by handle id, plus a copy-on-write snapshot slice the hot
// path iterates lock-free. Multiple owners — a CLI's bundle-dir export and a
// server job running concurrently — each hold their own handle, so removing
// one never tears down another's hook (the old process-global
// SetPairObserver atomic.Value made concurrent owners clobber each other).
var pairObservers struct {
	sync.Mutex
	seq  uint64
	m    map[uint64]func(Pair, PairResult)
	snap atomic.Value // []func(Pair, PairResult), rebuilt under the mutex
}

func init() {
	var empty []func(Pair, PairResult)
	pairObservers.snap.Store(empty)
}

// ObserverHandle identifies one installed pair observer; Remove uninstalls
// exactly that observer and no other.
type ObserverHandle struct {
	id   uint64
	once sync.Once
}

// AddPairObserver installs a hook that receives every successfully completed
// pair as it finishes, before the batch returns — the seam export layers
// (e.g. per-run report bundles) use to see each cpu.Result while its Stats
// registry is still reachable, without every harness growing an export
// parameter. The hook runs on worker goroutines, possibly concurrently, and
// must be goroutine-safe; failed pairs are not observed. Any number of
// observers can be installed concurrently; each is removed only through its
// own handle.
func AddPairObserver(fn func(Pair, PairResult)) *ObserverHandle {
	if fn == nil {
		return &ObserverHandle{}
	}
	pairObservers.Lock()
	defer pairObservers.Unlock()
	if pairObservers.m == nil {
		pairObservers.m = make(map[uint64]func(Pair, PairResult))
	}
	pairObservers.seq++
	h := &ObserverHandle{id: pairObservers.seq}
	pairObservers.m[h.id] = fn
	rebuildObserverSnap()
	return h
}

// Remove uninstalls the observer this handle was returned for. Safe to call
// multiple times; a handle from a nil AddPairObserver is a no-op. Pairs
// already in flight when Remove returns may still be observed once.
func (h *ObserverHandle) Remove() {
	h.once.Do(func() {
		if h.id == 0 {
			return
		}
		pairObservers.Lock()
		defer pairObservers.Unlock()
		delete(pairObservers.m, h.id)
		rebuildObserverSnap()
	})
}

// rebuildObserverSnap republishes the snapshot slice. Caller holds the
// mutex. Iteration order is by handle id, so observation order is stable.
func rebuildObserverSnap() {
	ids := make([]uint64, 0, len(pairObservers.m))
	for id := range pairObservers.m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fns := make([]func(Pair, PairResult), 0, len(ids))
	for _, id := range ids {
		fns = append(fns, pairObservers.m[id])
	}
	pairObservers.snap.Store(fns)
}

// observePair invokes every installed observer for a completed job.
func observePair(p Pair, pr PairResult) {
	if pr.Err != nil {
		return
	}
	for _, fn := range pairObservers.snap.Load().([]func(Pair, PairResult)) {
		fn(p, pr)
	}
}

// RunObs optionally attaches live instrumentation to one pair's runner —
// the seam the service layer and cmd/baryonsim use to stream status and
// request lifecycles out of a run without touching its registry.
type RunObs struct {
	// Tracer samples request lifecycles into a ring buffer (obs.Tracer).
	Tracer *obs.Tracer
	// Introspector receives RunStatus snapshots from the run goroutine.
	Introspector *obs.Introspector
	// StatusEvery is the introspector publish interval in accesses
	// (0 = the runner's default).
	StatusEvery uint64
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

// runPairIsolated executes one job with a panic boundary: a panicking
// controller or workload poisons only its own slot, never the sweep.
func runPairIsolated(ctx context.Context, p Pair) (pr PairResult) {
	defer func() {
		if rec := recover(); rec != nil {
			pr.Err = fmt.Errorf("experiment: %s/%s panicked: %v\n%s",
				p.Workload.Name, p.Design, rec, debug.Stack())
		}
	}()
	pr.Result, pr.Err = RunPairCtx(ctx, p)
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
	if err := ValidateSpec(spec, p.Cfg); err != nil {
		return cpu.Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return cpu.Result{}, err
	}
	var r *cpu.Runner
	if p.Source != nil {
		r = cpu.NewRunnerSource(p.Cfg, p.Source, FactorySpec(spec))
	} else {
		r = cpu.NewRunner(p.Cfg, p.Workload, FactorySpec(spec))
	}
	if o := p.Obs; o != nil {
		if o.Tracer != nil {
			r.SetTracer(o.Tracer)
		}
		if o.Introspector != nil {
			r.SetIntrospector(o.Introspector, o.StatusEvery)
		}
	}
	res, err := r.RunCtx(ctx)
	res.Design = p.Design
	return res, err
}

// RunPairsCtx executes every job concurrently and returns per-job outcomes
// in input order. Each job builds its own runner, store, controller and
// statistics, so jobs share no mutable state; successful slots are
// bit-identical to calling RunOne in a loop. A job that fails — invalid
// design, panic, cancellation — reports through its slot's Err while every
// other job completes; jobs not yet started when ctx is cancelled get
// ctx's error without running.
func RunPairsCtx(ctx context.Context, pairs []Pair) []PairResult {
	out := make([]PairResult, len(pairs))
	ran := make([]bool, len(pairs))
	forEach(ctx, len(pairs), func(i int) {
		ran[i] = true
		out[i] = runPairIsolated(ctx, pairs[i])
		observePair(pairs[i], out[i])
	})
	for i := range out {
		if !ran[i] {
			out[i].Err = ctx.Err()
		}
	}
	return out
}

// RunPairs executes every job concurrently and returns the results in input
// order, bit-identical to calling RunOne in a loop. It is the legacy strict
// entry point: any per-job error — including cancellation of the
// SetRunContext context — escalates to a panic, which the resilient
// commands catch at their per-harness isolation boundary. Callers that want
// per-job errors use RunPairsCtx.
func RunPairs(pairs []Pair) []cpu.Result {
	prs := RunPairsCtx(RunContext(), pairs)
	out := make([]cpu.Result, len(prs))
	for i, pr := range prs {
		if pr.Err != nil {
			panic(fmt.Sprintf("experiment: pair %s/%s failed: %v",
				pairs[i].Workload.Name, pairs[i].Design, pr.Err))
		}
		out[i] = pr.Result
	}
	return out
}

// RunMatrix runs the full workloads x designs grid under cfg and returns
// results indexed as [workload][design], matching the input slices. Like
// RunPairs it is strict: per-job errors escalate to panics.
func RunMatrix(cfg config.Config, workloads []trace.Workload, designs []string) [][]cpu.Result {
	pairs := make([]Pair, 0, len(workloads)*len(designs))
	for _, w := range workloads {
		for _, d := range designs {
			pairs = append(pairs, Pair{Cfg: cfg, Workload: w, Design: d})
		}
	}
	flat := RunPairs(pairs)
	out := make([][]cpu.Result, len(workloads))
	for wi := range workloads {
		out[wi] = flat[wi*len(designs) : (wi+1)*len(designs)]
	}
	return out
}
