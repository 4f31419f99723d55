package service

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"baryon/internal/config"
	"baryon/internal/cpu"
	"baryon/internal/experiment"
	"baryon/internal/obs"
	"baryon/internal/report"
	"baryon/internal/sim"
)

// ErrDraining is returned for submissions after Drain: the service is
// shutting down and accepts no new work.
var ErrDraining = errors.New("service: draining, not accepting new jobs")

// ErrOverloaded is returned when admission control refuses a submission:
// the async queue or the sync-waiter pool is full. Because runs are
// deterministic and content-addressed, a rejected request loses nothing —
// retrying after backoff converges to the identical answer (the HTTP layer
// answers 429 with a Retry-After hint; the Client honors it).
var ErrOverloaded = errors.New("service: overloaded, retry later")

// Options configures a Service.
type Options struct {
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// CacheEntries bounds the in-memory result LRU (0 = default).
	CacheEntries int
	// CacheDir, when non-empty, persists every result bundle on disk so a
	// restarted service serves its predecessor's results (cold-start
	// reload).
	CacheDir string
	// BaseConfig is the configuration jobs override (nil = config.Scaled()).
	BaseConfig *config.Config
	// MaxQueue bounds accepted-but-unfinished async submissions; beyond it
	// Submit returns ErrOverloaded instead of queueing without limit
	// (0 = unbounded).
	MaxQueue int
	// MaxSyncWaiters bounds synchronous cache-miss submissions waiting for
	// a simulation; beyond it Run returns ErrOverloaded (0 = unbounded).
	// Cache hits are never refused — serving stored bytes is cheap.
	MaxSyncWaiters int
	// Log receives the store's recovery and degradation diagnostics
	// (nil = os.Stderr).
	Log io.Writer
}

// Outcome is the result of one job submission.
type Outcome struct {
	// Hash is the job's content-address (the canonical spec hash).
	Hash string
	// Bundle is the canonical report-bundle bytes — byte-identical whether
	// freshly simulated or served from the store.
	Bundle []byte
	// CacheHit reports the bundle came from the result store; no
	// simulation ran for this call.
	CacheHit bool
	// Collapsed reports this call rode an identical in-flight submission
	// (singleflight); the one simulation was charged to another call.
	Collapsed bool
	// Result carries the full in-memory metrics and is set only when this
	// call executed the simulation itself.
	Result *cpu.Result
}

// Service is the shared run-service core: resolve, cache, collapse, and
// simulate jobs under a bounded worker pool.
type Service struct {
	base    config.Config
	cache   *Cache
	sem     chan struct{}
	workers int

	maxQueue       int
	maxSyncWaiters int

	mu       sync.Mutex
	jobs     map[string]*record // live and failed records, one per spec hash
	retained []*record          // failed records, oldest first
	jobsCap  int                // bound on retained failed records

	draining atomic.Bool
	wg       sync.WaitGroup

	submitted, completed, failed    atomic.Uint64
	simulations, collapsed, waiting atomic.Uint64

	asyncPending, syncWaiters            atomic.Int64
	admissionRejected, deadlinesExceeded atomic.Uint64
}

// New builds a Service.
func New(opts Options) (*Service, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache, err := NewStore(StoreConfig{Entries: opts.CacheEntries, Dir: opts.CacheDir, Log: opts.Log})
	if err != nil {
		return nil, err
	}
	base := config.Scaled()
	if opts.BaseConfig != nil {
		base = *opts.BaseConfig
	}
	return &Service{
		base:           base,
		cache:          cache,
		sem:            make(chan struct{}, workers),
		workers:        workers,
		maxQueue:       opts.MaxQueue,
		maxSyncWaiters: opts.MaxSyncWaiters,
		jobs:           make(map[string]*record),
		// The job table keeps as many failed records as the cache keeps
		// bundles; older failures report not-found and are retried on
		// resubmission.
		jobsCap: cache.cap,
	}, nil
}

// acquire registers one unit of in-flight work, refusing when the service is
// draining. The re-check after wg.Add closes the race with Drain+Wait: work
// that passes the second check either completed its Add before Wait could
// observe a zero counter, or is rejected here — Wait never returns while an
// accepted job is still starting.
func (s *Service) acquire() bool {
	if s.draining.Load() {
		return false
	}
	s.wg.Add(1)
	if s.draining.Load() {
		s.wg.Done()
		return false
	}
	return true
}

// Cache exposes the underlying result store. Only the end-to-end benchmark
// module calls it, to time the store on its own.
func (s *Service) Cache() *Cache { return s.cache }

// Resolve validates and canonicalizes a job against the service's base
// configuration. Errors are client errors (unknown design/workload, bad
// mode or windows).
func (s *Service) Resolve(job Job) (Resolved, error) { return job.resolve(s.base) }

// Run executes one job synchronously: result-store hit, collapse into an
// identical in-flight submission, or a fresh simulation on the worker pool.
// The HTTP API resolves first and calls RunResolved; only the end-to-end
// benchmark module calls Run.
func (s *Service) Run(ctx context.Context, job Job) (Outcome, error) {
	r, err := s.Resolve(job)
	if err != nil {
		return Outcome{}, err
	}
	return s.RunResolved(ctx, r)
}

// RunResolved is Run for a pre-resolved job. ctx bounds only this caller's
// wait: the simulation it starts or joins is cancelled when its last
// waiter leaves, never by one caller's deadline while others still wait.
func (s *Service) RunResolved(ctx context.Context, r Resolved) (Outcome, error) {
	if !s.acquire() {
		return Outcome{}, ErrDraining
	}
	defer s.wg.Done()
	s.submitted.Add(1)
	if data, ok := s.cache.Get(r.Hash); ok {
		s.completed.Add(1)
		return Outcome{Hash: r.Hash, Bundle: data, CacheHit: true}, nil
	}
	// Admission control for the sync path: a cache miss parks this caller
	// (its goroutine, connection and buffers) until a simulation finishes;
	// past the configured bound the memory-safe answer is "retry later",
	// never an unbounded pile of waiters.
	if s.maxSyncWaiters > 0 {
		if n := s.syncWaiters.Add(1); n > int64(s.maxSyncWaiters) {
			s.syncWaiters.Add(-1)
			s.admissionRejected.Add(1)
			s.failed.Add(1)
			return Outcome{}, ErrOverloaded
		}
		defer s.syncWaiters.Add(-1)
	}
	s.mu.Lock()
	rec, leader := s.join(r)
	s.mu.Unlock()
	return s.await(ctx, rec, leader)
}

// --- The job table: one record per spec hash ----------------------------

// Job lifecycle states reported by Status.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Progress is the compact live view of a running job, distilled from the
// runner's Introspector snapshots.
type Progress struct {
	Phase          string    `json:"phase"`
	Accesses       uint64    `json:"accesses"`
	TargetAccesses uint64    `json:"targetAccesses"`
	Cycles         uint64    `json:"cycles"`
	Instructions   uint64    `json:"instructions"`
	UpdatedAt      time.Time `json:"updatedAt"`
}

// JobStatus is the serializable status snapshot of one submitted job.
type JobStatus struct {
	Hash      string    `json:"hash"`
	Job       Job       `json:"job"`
	State     string    `json:"state"`
	CacheHit  bool      `json:"cacheHit,omitempty"`
	Collapsed bool      `json:"collapsed,omitempty"`
	Error     string    `json:"error,omitempty"`
	Progress  *Progress `json:"progress,omitempty"`
}

// record is one spec hash's lifecycle and its singleflight: every caller
// for the hash, sync or async, joins the same record and waits on done.
// It stays in Service.jobs while queued or running; a success leaves the
// table once its bundle is in the result store (Status then answers done
// from the store), and a failure stays, bounded by jobsCap, until retried.
type record struct {
	hash   string
	job    Job
	intro  *obs.Introspector
	cancel context.CancelFunc // stops the run; its last waiter calls it
	done   chan struct{}      // closed once out and err are final

	// Guarded by Service.mu.
	state   string
	waiters int  // callers waiting on done
	async   bool // a Submit waiter is attached
	out     Outcome
	err     error
}

// status snapshots rec; the caller holds Service.mu.
func (rec *record) status() JobStatus {
	js := JobStatus{Hash: rec.hash, Job: rec.job, State: rec.state}
	if rec.err != nil {
		js.Error = rec.err.Error()
	}
	if rs := rec.intro.Latest(); rs != nil && rec.state == StateRunning {
		js.Progress = &Progress{
			Phase:          rs.Phase,
			Accesses:       rs.Accesses,
			TargetAccesses: rs.TargetAccesses,
			Cycles:         rs.Cycles,
			Instructions:   rs.Instructions,
			UpdatedAt:      rs.UpdatedAt,
		}
	}
	return js
}

// join registers one waiter on r's record. When the hash has no record, or
// only a failed one, it creates the record and starts its one simulation;
// leader reports that this call did. The run's context derives from no
// caller's: the record owns it, so only leave cancels it. The caller holds
// s.mu and a work unit (acquire), so the simulation's own unit cannot race
// Wait.
func (s *Service) join(r Resolved) (rec *record, leader bool) {
	rec = s.jobs[r.Hash]
	if rec == nil || rec.state == StateFailed {
		ctx, cancel := context.WithCancel(context.Background())
		rec = &record{hash: r.Hash, job: r.Job, intro: &obs.Introspector{},
			cancel: cancel, done: make(chan struct{}), state: StateQueued}
		s.jobs[r.Hash] = rec
		s.wg.Add(1)
		go s.simulate(ctx, rec, r)
		leader = true
	}
	rec.waiters++
	return rec, leader
}

// await waits on rec for one joined caller until the run ends or ctx does,
// then leaves the record and settles the caller's counters. Only the leader
// gets the live Result; every other caller shares the immutable bundle
// bytes, never the leader's Stats registry.
func (s *Service) await(ctx context.Context, rec *record, leader bool) (Outcome, error) {
	var err error
	select {
	case <-rec.done:
		err = rec.err
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.leave(rec)
	switch {
	case err != nil:
		if errors.Is(err, context.DeadlineExceeded) {
			s.deadlinesExceeded.Add(1)
		}
		s.failed.Add(1)
		return Outcome{}, err
	case leader:
		s.completed.Add(1)
		return rec.out, nil
	}
	s.collapsed.Add(1)
	s.completed.Add(1)
	return Outcome{Hash: rec.hash, Bundle: rec.out.Bundle, Collapsed: true}, nil
}

// leave unregisters one waiter. The last waiter to leave an unfinished run
// cancels it, freeing its worker, and takes the record out of the table so
// a later caller starts afresh instead of joining a dying run.
func (s *Service) leave(rec *record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.waiters--
	if rec.waiters > 0 || rec.state == StateDone || rec.state == StateFailed {
		return
	}
	rec.cancel()
	if s.jobs[rec.hash] == rec {
		delete(s.jobs, rec.hash)
	}
}

// simulate runs rec's one simulation on the worker pool and publishes the
// outcome: a success leaves the table (its bundle is already in the store),
// a failure is retained for Status under the jobsCap bound.
func (s *Service) simulate(ctx context.Context, rec *record, r Resolved) {
	defer s.wg.Done()
	defer rec.cancel()
	out, err := s.runOnWorker(ctx, rec, r)
	s.mu.Lock()
	rec.out, rec.err = out, err
	if s.jobs[rec.hash] == rec {
		if err == nil {
			delete(s.jobs, rec.hash)
		} else {
			s.retain(rec)
		}
	}
	rec.state = StateDone
	if err != nil {
		rec.state = StateFailed
	}
	s.mu.Unlock()
	close(rec.done)
}

// retain enrolls a failed record in the bounded retention list and drops
// the oldest beyond the bound, keeping the table from growing without limit
// in a long-running daemon. Eviction re-checks identity: a failed hash that
// was retried (and so replaced in the map) is not clobbered by its
// predecessor. The caller holds s.mu.
func (s *Service) retain(rec *record) {
	s.retained = append(s.retained, rec)
	for len(s.retained) > s.jobsCap {
		old := s.retained[0]
		s.retained[0] = nil
		s.retained = s.retained[1:]
		if s.jobs[old.hash] == old {
			delete(s.jobs, old.hash)
		}
	}
}

// runOnWorker waits for a worker slot, executes r as a one-pair batch and
// stores its canonical bundle in the result store.
func (s *Service) runOnWorker(ctx context.Context, rec *record, r Resolved) (Outcome, error) {
	s.waiting.Add(1)
	select {
	case s.sem <- struct{}{}:
		s.waiting.Add(^uint64(0))
	case <-ctx.Done():
		s.waiting.Add(^uint64(0))
		return Outcome{}, ctx.Err()
	}
	defer func() { <-s.sem }()
	s.simulations.Add(1)
	s.mu.Lock()
	rec.state = StateRunning
	s.mu.Unlock()

	pair := experiment.Pair{
		Cfg:      r.Cfg,
		Workload: r.W,
		Design:   r.Job.Design,
		Obs:      &experiment.RunObs{Introspector: rec.intro},
	}
	// A one-pair batch through the shared pool entry point buys the same
	// per-pair panic isolation sweeps get: a controller bug fails the job,
	// not the server. Zero Options: the batch has no observer, so no CLI
	// export in the same process sees server jobs.
	pr := experiment.RunPairsCtx(ctx, experiment.Options{}, []experiment.Pair{pair})[0]
	if pr.Err != nil {
		return Outcome{}, pr.Err
	}
	b, err := report.New(r.Key, pr.Result)
	if err != nil {
		return Outcome{}, err
	}
	data, err := b.MarshalCanonical()
	if err != nil {
		return Outcome{}, err
	}
	// Put never fails the job: a disk-write failure degrades the store to
	// memory-only (counted, logged, visible on /metrics) while this result
	// is served from memory like any other.
	s.cache.Put(r.Hash, data)
	return Outcome{Hash: r.Hash, Bundle: data, Result: &pr.Result}, nil
}

// Submit enqueues a job asynchronously and returns its immediate status.
// The job is content-addressed: a stored result answers done at once, and
// an identical in-flight job is joined instead of duplicated; a failed
// record is retried. ctx bounds this submission's wait on the run — the
// daemon passes its lifetime context, not the HTTP request's — and budget,
// when positive, caps that wait. The budget's timer starts with the wait,
// so a submission that is refused or answered at once holds none.
func (s *Service) Submit(ctx context.Context, job Job, budget time.Duration) (JobStatus, error) {
	if s.draining.Load() {
		return JobStatus{}, ErrDraining
	}
	r, err := s.Resolve(job)
	if err != nil {
		return JobStatus{}, err
	}
	if _, ok := s.cache.Get(r.Hash); ok {
		s.submitted.Add(1)
		s.completed.Add(1)
		return JobStatus{Hash: r.Hash, Job: r.Job, State: StateDone, CacheHit: true}, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec := s.jobs[r.Hash]; rec != nil && rec.async && rec.state != StateFailed {
		// An identical re-submission: the record already has its async
		// waiter, so this costs nothing and is never refused.
		return rec.status(), nil
	}
	// Admission control for the async path: every accepted submission is a
	// waiting goroutine until its run finishes, so the queue bound is what
	// keeps a load spike from growing the heap without limit. Add-then-check
	// keeps the bound exact under concurrent submissions.
	if n := s.asyncPending.Add(1); s.maxQueue > 0 && n > int64(s.maxQueue) {
		s.asyncPending.Add(-1)
		s.admissionRejected.Add(1)
		return JobStatus{}, ErrOverloaded
	}
	if !s.acquire() {
		s.asyncPending.Add(-1)
		return JobStatus{}, ErrDraining
	}
	s.submitted.Add(1)
	rec, leader := s.join(r)
	rec.async = true
	go func() {
		defer s.wg.Done()
		defer s.asyncPending.Add(-1)
		ctx, cancel := withBudget(ctx, budget)
		defer cancel()
		s.await(ctx, rec, leader)
	}()
	st := rec.status()
	st.Collapsed = !leader
	return st, nil
}

// Status returns the status of a previously submitted hash. The job table
// holds only queued, running and failed records: a completed hash — from
// this process, an earlier one sharing the cache directory, or a sync run —
// reports done from the result store, so done always means its result is
// servable. Evicted failed records report not-found; resubmitting retries
// them.
func (s *Service) Status(hash string) (JobStatus, bool) {
	s.mu.Lock()
	rec, ok := s.jobs[hash]
	var st JobStatus
	if ok {
		st = rec.status()
	}
	s.mu.Unlock()
	if ok {
		return st, true
	}
	if _, ok := s.cache.Get(hash); ok {
		return JobStatus{Hash: hash, State: StateDone, CacheHit: true}, true
	}
	return JobStatus{}, false
}

// ResultBytes returns the canonical bundle bytes for a completed hash.
func (s *Service) ResultBytes(hash string) ([]byte, bool) {
	return s.cache.Get(hash)
}

// Drain stops the service accepting new submissions; in-flight jobs keep
// running. Wait blocks until they finish.
func (s *Service) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// Wait blocks until every accepted job has finished, or ctx expires.
func (s *Service) Wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// MetricsSnapshot renders the service's cache and job counters and its
// queue and cache gauges as a registry snapshot for the OpenMetrics path
// (obs.WriteOpenMetrics).
func (s *Service) MetricsSnapshot() sim.Snapshot {
	st := sim.NewStats()
	cs := s.cache.Stats()
	st.Counter("cache.hits").Add(cs.Hits)
	st.Counter("cache.diskHits").Add(cs.DiskHits)
	st.Counter("cache.misses").Add(cs.Misses)
	st.Counter("cache.evictions").Add(cs.Evictions)
	st.Gauge("cache.entries").Set(int64(cs.Entries))
	st.Counter("cache.corrupt").Add(cs.Corrupt)
	st.Counter("cache.quarantined").Add(cs.Quarantined)
	st.Counter("cache.diskError").Add(cs.DiskErrors)
	st.Counter("cache.recoveredTmp").Add(cs.RecoveredTmp)
	degraded := int64(0)
	if cs.Degraded {
		degraded = 1
	}
	st.Gauge("cache.degraded").Set(degraded)
	st.Counter("jobs.submitted").Add(s.submitted.Load())
	st.Counter("jobs.completed").Add(s.completed.Load())
	st.Counter("jobs.failed").Add(s.failed.Load())
	st.Counter("jobs.collapsed").Add(s.collapsed.Load())
	st.Counter("jobs.simulations").Add(s.simulations.Load())
	st.Gauge("queue.running").Set(int64(len(s.sem)))
	st.Gauge("queue.waiting").Set(int64(s.waiting.Load()))
	st.Gauge("queue.queued").Set(max(0, s.asyncPending.Load()))
	st.Gauge("queue.syncWaiters").Set(max(0, s.syncWaiters.Load()))
	st.Counter("admission.rejected").Add(s.admissionRejected.Load())
	st.Counter("deadline.exceeded").Add(s.deadlinesExceeded.Load())
	return st.Snapshot()
}

// RetryAfter suggests how many seconds a rejected client should back off
// before resubmitting, scaled to the current backlog per worker. It is the
// value behind the HTTP Retry-After header on 429/503 responses.
func (s *Service) RetryAfter() int {
	backlog := int(s.waiting.Load()) + int(s.asyncPending.Load())
	secs := 1 + backlog/s.workers
	if secs > 30 {
		secs = 30
	}
	return secs
}
