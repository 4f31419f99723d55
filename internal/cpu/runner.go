// Package cpu is the trace-driven multicore front end that substitutes for
// the paper's zsim setup: sixteen cores replay workload access streams
// through the Table I cache hierarchy into a hybrid-memory controller. Cores
// progress on private clocks (interleaved in global time order), non-memory
// instructions retire at a fixed IPC, and memory stalls are divided by a
// configurable memory-level-parallelism overlap factor. The output is total
// cycles plus the memory-system metrics the paper's figures report.
package cpu

import (
	"context"
	"time"

	"baryon/internal/cache"
	"baryon/internal/config"
	"baryon/internal/datagen"
	"baryon/internal/hybrid"
	"baryon/internal/mem"
	"baryon/internal/obs"
	"baryon/internal/sim"
	"baryon/internal/trace"
)

// nonMemIPC is the retire rate of non-memory instructions.
const nonMemIPC = 2.0

// mlpOverlap is the memory-level parallelism factor: a core's memory stall
// is the access latency divided by it.
const mlpOverlap = 2

// DeviceProvider exposes a controller's fast and slow devices. The runner
// reads device traffic through hybrid.Controller's Engine, and no
// controller implements it; only the end-to-end benchmark module uses it
// (see benchOnlyExports in the root exports_test.go).
type DeviceProvider interface {
	FastDevice() *mem.Device
	SlowDevice() *mem.Device
}

// Window summarises one interval of a run — the warmup phase, the
// measurement phase, or one epoch of the measurement phase. All values are
// deltas over the interval, computed from registry snapshots.
type Window struct {
	// Accesses is the number of demand accesses issued in the window.
	Accesses uint64 `json:"accesses"`
	// Instructions/Cycles are the retired-instruction and elapsed-cycle
	// deltas (cycles advance on the max-finish watermark across cores).
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	// FastServeRate is the fraction of the window's LLC misses served by
	// fast memory.
	FastServeRate float64 `json:"fastServeRate"`
	// BloatFactor is the window's fast-memory traffic divided by its
	// useful LLC fill traffic.
	BloatFactor float64 `json:"bloatFactor"`
	// FastBytes/SlowBytes are the window's device traffic.
	FastBytes uint64 `json:"fastBytes"`
	SlowBytes uint64 `json:"slowBytes"`
	// TierBytes is the per-tier traffic breakdown (tier 0 first), populated
	// only on topologies beyond the classic two tiers — two-tier output is
	// fully described by FastBytes/SlowBytes and stays byte-identical. When
	// set, SlowBytes covers every far tier combined.
	TierBytes []uint64 `json:"tierBytes,omitempty"`
	// CXLLinkBytes/CXLInternalBytes split the window's CXL-expander traffic
	// into host-link bytes (always uncompressed) and expander-internal
	// bytes (compressed when expander-side compression is on), summed over
	// every CXL tier. Zero on topologies without a CXL device.
	CXLLinkBytes     uint64 `json:"cxlLinkBytes,omitempty"`
	CXLInternalBytes uint64 `json:"cxlInternalBytes,omitempty"`
	// EnergyPJ is the window's memory-system access energy.
	EnergyPJ float64 `json:"energyPJ"`
	// MemLat digests the window's whole-plane demand completion-latency
	// histogram ("hierarchy.lat.demand" window delta).
	MemLat sim.HistSummary `json:"memLat"`
}

// IPC returns the window's retired instructions per cycle.
func (w Window) IPC() float64 {
	if w.Cycles == 0 {
		return 0
	}
	return float64(w.Instructions) / float64(w.Cycles)
}

// Epoch is one periodic snapshot of the measurement window: a Window delta
// plus its position in the run.
type Epoch struct {
	// Index is the epoch's ordinal within the measurement window.
	Index int `json:"epoch"`
	// EndAccesses is the cumulative number of measured accesses when the
	// epoch closed.
	EndAccesses uint64 `json:"endAccesses"`
	Window
}

// Result summarises one run: the measured Window plus the run's identity,
// registry and derived series. With warmup disabled (the default) the
// measured window covers the whole run, bit-identical to the historical
// cold-start accounting; with cfg.WarmupAccessesPerCore > 0 it is the
// measurement-window delta and Warmup holds the discarded transient.
type Result struct {
	Workload string
	Design   string
	// Window is the measurement window: cycles, instructions, serve rate
	// (Fig. 11 left), bloat factor (Fig. 11 right), energy, device traffic
	// and demand latency, all promoted as Result's headline fields.
	Window
	// TierNames names the tiers of Window.TierBytes (tier 0 first);
	// populated only for topologies beyond the classic two tiers.
	TierNames []string
	Stats     *sim.Stats
	// Warmup is the warmup-window breakdown (zero when warmup is off).
	Warmup Window
	// Epochs is the per-epoch time-series of the measurement window
	// (nil unless cfg.EpochAccesses > 0).
	Epochs []Epoch
	// MeasureStart is the registry snapshot taken at the measurement-window
	// boundary (after warmup, before the first measured access). Export
	// layers delta the live Stats against it to recover the full
	// measurement-window counter map: Stats.Delta(MeasureStart). With
	// warmup disabled the snapshot is effectively empty, so the delta
	// equals the cumulative registry.
	MeasureStart sim.Snapshot
}

// coreClock is one ready core in the scheduling heap.
type coreClock struct {
	time uint64
	core int32
}

// clockHeap is a binary min-heap of core clocks ordered by (time, core).
// The secondary key reproduces the tie-breaking of the straightforward
// "scan all cores, keep the strictly earliest" loop it replaces — among
// equal clocks that scan settles on the lowest core index — so the
// simulated interleaving (and therefore every statistic) is bit-identical.
type clockHeap []coreClock

func (h clockHeap) less(i, j int) bool {
	return h[i].time < h[j].time || (h[i].time == h[j].time && h[i].core < h[j].core)
}

func (h *clockHeap) push(c coreClock) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

// fixMin restores heap order after the root's time was increased in place.
func (h clockHeap) fixMin() {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h.less(l, min) {
			min = l
		}
		if r < len(h) && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// popMin removes and returns nothing: the caller reads h[0] directly; this
// drops the root when its core has retired its access budget.
func (h *clockHeap) popMin() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	old[n] = coreClock{}
	(*h).fixMin()
}

// Runner executes one trace source against one controller.
type Runner struct {
	cfg   config.Config
	src   trace.Source
	ctrl  hybrid.Controller
	hier  *cache.Hierarchy
	store *hybrid.Store
	stats *sim.Stats
	// design labels the run's Result and published RunStatus snapshots;
	// empty unless SetDesign names the design spec.
	design string

	// tracer, when set, brackets every demand access with request-lifecycle
	// events. Nil (the default) keeps the hot path on a single branch.
	tracer *obs.Tracer
	// intro, when set, receives RunStatus snapshots every statusEvery
	// accesses (published from the run goroutine; readers see immutable
	// copies, never the live registry).
	intro *obs.Introspector

	// ctxDone is the cancellation channel of the RunCtx context; nil (a
	// context that cannot be cancelled) skips the cancellation checks
	// entirely so uncancellable runs stay bit-identical. aborted records
	// that a window stopped early.
	ctxDone <-chan struct{}
	aborted bool
}

// ControllerFactory builds a controller over a canonical store.
type ControllerFactory func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller

// newStore makes the memory image of a value mix: blocks start as
// datagen's fill, and a line written at version v holds datagen.FillLine's
// content at v.
func newStore(mix datagen.Mix) *hybrid.Store {
	fill := datagen.Filler(mix)
	return hybrid.NewStore(
		func(b hybrid.BlockID, dst *[hybrid.BlockSize]byte) { fill(uint64(b), dst) },
		func(b hybrid.BlockID, line int, v uint32, dst *[hybrid.CachelineSize]byte) {
			datagen.FillLine(dst[:], uint64(b), line/hybrid.LinesPerSub, line%hybrid.LinesPerSub, v, mix.ClassFor(uint64(b)))
		})
}

// NewRunnerSource wires a trace source (a synthetic trace.Workload or a
// recorded replay, see trace.Source), a fresh canonical store filled with
// the source's value mix, the cache hierarchy and the controller produced by
// factory.
func NewRunnerSource(cfg config.Config, src trace.Source, factory ControllerFactory) *Runner {
	stats := sim.NewStats()
	store := newStore(src.ValueMix())
	ctrl := factory(cfg, store, stats)
	hcfg := cache.DefaultHierarchy(cfg.Cores, cfg.LLCKB)
	hcfg.InstallPrefetched = !cfg.NoLLCPrefetch
	hier := cache.NewHierarchy(hcfg, ctrl, stats)
	hier.StoreLine = store.WriteBack
	return &Runner{cfg: cfg, src: src, ctrl: ctrl, hier: hier, store: store, stats: stats}
}

// SetTracer attaches a request-lifecycle tracer to the runner, the cache
// hierarchy and the controller's engine with its devices. Must be called
// before RunCtx; nil detaches everywhere.
func (r *Runner) SetTracer(t *obs.Tracer) {
	r.tracer = t
	r.hier.SetTracer(t)
	r.ctrl.Engine().SetTracer(t)
}

// statusEvery is the live-introspection publish interval in accesses.
const statusEvery = 65536

// SetIntrospector points the runner at a live-introspection publisher: a
// fresh RunStatus is published every statusEvery accesses (and at window
// boundaries). The runner remains the only goroutine touching the registry;
// HTTP handlers read only the published immutable snapshots.
func (r *Runner) SetIntrospector(in *obs.Introspector) { r.intro = in }

// SetDesign labels the run with its design spec's name, the only name a
// design has, in its Result and in every published RunStatus. Must be
// called before Run.
func (r *Runner) SetDesign(name string) { r.design = name }

// Controller returns the controller under test.
func (r *Runner) Controller() hybrid.Controller { return r.ctrl }

// runState carries the simulation frontier across windows: per-core clocks
// survive the warmup/measurement boundary so measurement continues the same
// interleaved timeline the warmup left behind.
type runState struct {
	streams []trace.Streamer
	sink    hybrid.InstructionSink
	osBytes uint64
	clock   []uint64 // per-core next-issue time, carried across windows
	left    []int
	ready   clockHeap
	// Cumulative run totals; windows are deltas between marks of these.
	accesses     uint64
	instructions uint64
	cycles       uint64 // max finish watermark
	phase        string // "warmup" or "measure", for live introspection
	// warmBase, when set, is the registry snapshot at the warmup boundary:
	// published statuses in the measure phase expose the delta against it,
	// so /metrics scrapes stay window-correct across the boundary.
	warmBase *sim.Snapshot
}

// runWindow replays perCore accesses on every core, continuing from the
// clocks the previous window left. Cores are rescheduled in index order at
// their carried clocks, so a run with warmup=0 replays the exact historical
// interleaving. When epochEvery > 0, onEpoch fires after every epochEvery
// accesses (total across cores).
func (r *Runner) runWindow(st *runState, perCore int, epochEvery uint64, onEpoch func()) {
	if perCore <= 0 {
		return
	}
	cores := len(st.clock)
	for c := 0; c < cores; c++ {
		st.left[c] = perCore
	}
	// Ready cores live in a min-heap keyed by (clock, core index), so
	// advancing the earliest core is O(log cores) instead of an O(cores)
	// scan per access. Pushing in index order yields the same interleaving
	// as the scan the heap replaced.
	st.ready = st.ready[:0]
	for c := 0; c < cores; c++ {
		st.ready.push(coreClock{time: st.clock[c], core: int32(c)})
	}
	var sinceEpoch, sinceProgress, sinceCancel uint64
	for len(st.ready) > 0 {
		if r.ctxDone != nil {
			// Poll cancellation every 1024 accesses: cheap enough to be
			// invisible, frequent enough that SIGINT lands within
			// milliseconds of wall time.
			sinceCancel++
			if sinceCancel >= 1024 {
				sinceCancel = 0
				select {
				case <-r.ctxDone:
					r.aborted = true
					return
				default:
				}
			}
		}
		core := int(st.ready[0].core)
		acc := st.streams[core].Next()
		addr := acc.Addr % st.osBytes &^ (hybrid.CachelineSize - 1)
		gap := uint64(acc.Gap)
		st.instructions += gap + 1
		if st.sink != nil {
			st.sink.AddInstructions(gap + 1)
		}
		now := st.ready[0].time + uint64(float64(gap)/nonMemIPC)

		if acc.Write {
			r.store.Write(addr)
		}
		if r.tracer != nil {
			r.tracer.BeginReq(core, addr, now)
		}
		done := r.hier.Access(core, now, addr, acc.Write)
		if r.tracer != nil {
			r.tracer.EndReq(done)
		}
		stall := (done - now) / mlpOverlap
		finish := now + stall + 1
		if finish > st.cycles {
			st.cycles = finish
		}
		st.clock[core] = finish
		st.accesses++
		st.left[core]--
		if st.left[core] == 0 {
			st.ready.popMin()
		} else {
			st.ready[0].time = finish
			st.ready.fixMin()
		}
		if epochEvery > 0 {
			sinceEpoch++
			if sinceEpoch >= epochEvery {
				onEpoch()
				sinceEpoch = 0
			}
		}
		if r.intro != nil {
			sinceProgress++
			if sinceProgress >= statusEvery {
				r.publishStatus(st)
				sinceProgress = 0
			}
		}
	}
	if r.intro != nil {
		r.publishStatus(st)
	}
}

// publishStatus builds and publishes an immutable RunStatus. It runs on the
// run goroutine, which owns the registry, so the reads are race-free; the
// published copy is never mutated afterwards.
func (r *Runner) publishStatus(st *runState) {
	rs := &obs.RunStatus{
		Workload:       r.src.SourceName(),
		Design:         r.design,
		Seed:           r.cfg.Seed,
		TargetAccesses: uint64(r.cfg.Cores) * uint64(r.cfg.WarmupAccessesPerCore+r.cfg.AccessesPerCore),
		Accesses:       st.accesses,
		Instructions:   st.instructions,
		Cycles:         st.cycles,
		CoreClocks:     append([]uint64(nil), st.clock...),
		Phase:          st.phase,
		UpdatedAt:      time.Now(),
	}
	// The published snapshot is window-correct: raw registry values during
	// warmup, deltas since the warmup boundary once measurement starts.
	if st.phase == "measure" && st.warmBase != nil {
		rs.Snap = r.stats.Delta(*st.warmBase)
	} else {
		rs.Snap = r.stats.Snapshot()
	}
	r.intro.Publish(rs)
}

// mark is a point-in-time reference for window deltas: a registry snapshot
// plus the run-loop totals the registry does not own.
type mark struct {
	snap         sim.Snapshot
	accesses     uint64
	instructions uint64
	cycles       uint64
}

func (r *Runner) mark(st *runState) mark {
	return mark{
		snap:         r.stats.Snapshot(),
		accesses:     st.accesses,
		instructions: st.instructions,
		cycles:       st.cycles,
	}
}

// windowSince computes the metrics accumulated between m and now, reading
// the hierarchy and device deltas through typed counter handles.
func (r *Runner) windowSince(m mark, st *runState) Window {
	hc := r.hier.Counters()
	served := m.snap.DeltaOf(hc.ServedFast)
	servedSlow := m.snap.DeltaOf(hc.ServedSlow)
	w := Window{
		Accesses:      st.accesses - m.accesses,
		Instructions:  st.instructions - m.instructions,
		Cycles:        st.cycles - m.cycles,
		FastServeRate: sim.Ratio(served, served+servedSlow),
	}
	demandLat := m.snap.DeltaOfHist(hc.DemandLat)
	w.MemLat = demandLat.Summary()
	tiers := r.ctrl.Engine().Tiers()
	if len(tiers) > 2 {
		// Beyond two tiers the fast/slow pair hides the far side's shape:
		// break traffic down per tier as well.
		w.TierBytes = make([]uint64, len(tiers))
	}
	// Tier 0 is the fast side and every later tier the slow side; energy
	// sums in tier order.
	for i, t := range tiers {
		tc := t.Device().Counters()
		bytes := m.snap.DeltaOf(tc.BytesRead) + m.snap.DeltaOf(tc.BytesWritten)
		if i == 0 {
			w.FastBytes = bytes
		} else {
			w.SlowBytes += bytes
		}
		if w.TierBytes != nil {
			w.TierBytes[i] = bytes
		}
		w.EnergyPJ += m.snap.DeltaOfFloat(tc.EnergyPJ)
		// The link/internal split exists at any tier count — a two-tier
		// topology can already put its far tier behind a CXL link.
		if tc.CXLLinkBytes != nil {
			w.CXLLinkBytes += m.snap.DeltaOf(tc.CXLLinkBytes)
			w.CXLInternalBytes += m.snap.DeltaOf(tc.CXLInternalBytes)
		}
	}
	useful := m.snap.DeltaOf(hc.LLCMisses) * hybrid.CachelineSize
	w.BloatFactor = sim.Ratio(w.FastBytes, useful)
	return w
}

// newRunState seeds the replay frontier: fresh per-core streams and clocks.
func (r *Runner) newRunState() *runState {
	cores := r.cfg.Cores
	st := &runState{
		streams: r.src.Streams(cores, r.cfg.TraceFastBlocks(), r.cfg.Seed),
		osBytes: r.cfg.OSBlocks() * r.cfg.BlockBytes,
		clock:   make([]uint64, cores),
		left:    make([]int, cores),
		ready:   make(clockHeap, 0, cores),
	}
	st.sink, _ = r.ctrl.(hybrid.InstructionSink)
	return st
}

// Stepper exposes the replay loop in resumable windows: each Window call
// replays further accesses continuing the same interleaved timeline. This
// is the harness for steady-state measurements — warm the simulation up
// with one window, then probe subsequent windows (e.g. with
// testing.AllocsPerRun) without the per-run construction costs. A Stepper
// and RunCtx must not be mixed on one Runner.
type Stepper struct {
	r  *Runner
	st *runState
}

// Stepper returns a fresh stepping harness over the runner.
func (r *Runner) Stepper() *Stepper {
	return &Stepper{r: r, st: r.newRunState()}
}

// Window replays perCore accesses on every core.
func (s *Stepper) Window(perCore int) {
	s.r.runWindow(s.st, perCore, 0, nil)
}

// Accesses returns the cumulative accesses replayed so far.
func (s *Stepper) Accesses() uint64 { return s.st.accesses }

// RunCtx replays the configured warmup window (if any), snapshots every
// counter in the run registry, then replays accessesPerCore accesses on
// each core and returns measurement-window metrics, plus the per-epoch
// time-series when cfg.EpochAccesses > 0. When ctx is cancelled the replay
// stops within ~1024 accesses and RunCtx returns the metrics accumulated so
// far together with ctx's error. A context that cannot be cancelled
// (context.Background()) adds zero checks to the hot loop.
func (r *Runner) RunCtx(ctx context.Context) (Result, error) {
	r.ctxDone = ctx.Done()
	st := r.newRunState()

	start := r.mark(st)
	st.phase = "warmup"
	r.runWindow(st, r.cfg.WarmupAccessesPerCore, 0, nil)
	warmup := r.windowSince(start, st)
	warm := r.mark(st)
	st.phase = "measure"
	st.warmBase = &warm.snap

	var epochs []Epoch
	epochStart := warm
	onEpoch := func() {
		w := r.windowSince(epochStart, st)
		epochs = append(epochs, Epoch{
			Index:       len(epochs),
			EndAccesses: st.accesses - warm.accesses,
			Window:      w,
		})
		epochStart = r.mark(st)
	}
	if !r.aborted {
		r.runWindow(st, r.cfg.AccessesPerCore, uint64(r.cfg.EpochAccesses), onEpoch)
	}
	if r.cfg.EpochAccesses > 0 && st.accesses > epochStart.accesses {
		// Close the partial tail epoch so the series covers the window.
		onEpoch()
	}
	res := Result{
		Workload:     r.src.SourceName(),
		Design:       r.design,
		Window:       r.windowSince(warm, st),
		Stats:        r.stats,
		Warmup:       warmup,
		Epochs:       epochs,
		MeasureStart: warm.snap,
	}
	if tiers := r.ctrl.Engine().Tiers(); len(tiers) > 2 {
		res.TierNames = make([]string, len(tiers))
		for i, t := range tiers {
			res.TierNames[i] = t.Name()
		}
	}
	if r.aborted {
		return res, ctx.Err()
	}
	return res, nil
}
