package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"baryon/internal/config"
	"baryon/internal/datagen"
	"baryon/internal/experiment"
	"baryon/internal/report"
	"baryon/internal/trace"
)

// quickConfig is a base configuration small enough that a full simulation
// finishes in well under a second.
func quickConfig() config.Config {
	cfg := config.Scaled()
	cfg.AccessesPerCore = 1200
	return cfg
}

// panicSource is a workload that panics when a runner asks it for streams.
type panicSource struct{}

func (panicSource) SourceName() string                           { return "poisoned" }
func (panicSource) ValueMix() datagen.Mix                        { return datagen.Mix{} }
func (panicSource) Streams(int, uint64, uint64) []trace.Streamer { panic("poisoned workload") }

// poisonPairs returns a pool entry point that runs design's pairs on
// panicSource and every other pair as given.
func poisonPairs(design string) func(context.Context, experiment.Options, []experiment.Pair) []experiment.PairResult {
	return func(ctx context.Context, o experiment.Options, pairs []experiment.Pair) []experiment.PairResult {
		for i := range pairs {
			if pairs[i].Design == design {
				pairs[i].Source = panicSource{}
			}
		}
		return experiment.RunPairsCtx(ctx, o, pairs)
	}
}

// simulations reads how many simulations s has run from its metrics: the
// denominator of every "identical requests cost one simulation" claim.
func simulations(s *Service) uint64 { return s.MetricsSnapshot().Get("jobs.simulations") }

func quickService(t *testing.T, opts Options) *Service {
	t.Helper()
	if opts.BaseConfig == nil {
		cfg := quickConfig()
		opts.BaseConfig = &cfg
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNewRejectsNegativeBounds: a negative worker count, queue bound,
// sync-waiter bound or cache size is an error naming the option, not a
// silent default (which for the two bounds turns 429 backpressure off, and
// for the cache size keeps 1024 entries).
func TestNewRejectsNegativeBounds(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"Workers", Options{Workers: -1}},
		{"MaxQueue", Options{MaxQueue: -1}},
		{"MaxSyncWaiters", Options{MaxSyncWaiters: -3}},
		{"CacheEntries", Options{CacheEntries: -1}},
	} {
		s, err := New(c.opts)
		if err == nil || !strings.Contains(err.Error(), c.name+" = ") {
			t.Fatalf("New with a negative %s: service %v, error %v; want an error naming %s", c.name, s != nil, err, c.name)
		}
	}
	if _, err := New(Options{}); err != nil {
		t.Fatalf("New with zero bounds: %v", err)
	}
}

var quickJob = Job{Design: "Baryon", Workload: "505.mcf_r", Seed: 1}

// fakeBundle builds a minimal valid store entry: canonical bundle bytes
// whose recorded and recomputed spec hash agree, so the verified disk layer
// accepts it without running a simulation.
func fakeBundle(t *testing.T, seed uint64) (hash string, data []byte) {
	t.Helper()
	key := report.SpecKey{Workload: "synthetic", Seed: seed}
	h, err := key.Hash()
	if err != nil {
		t.Fatal(err)
	}
	b := report.Bundle{
		Schema:   report.SchemaVersion,
		SpecHash: h,
		Spec:     key,
		Counters: map[string]uint64{"x": seed},
		Floats:   map[string]float64{},
	}
	d, err := b.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	return h, d
}

// TestRunCacheHit pins the core cache contract: the second identical
// submission is a hit, costs no simulation, and returns byte-identical
// bundle bytes.
func TestRunCacheHit(t *testing.T) {
	s := quickService(t, Options{})
	ctx := context.Background()
	first, err := s.Run(ctx, quickJob)
	if err != nil {
		t.Fatal(err)
	}
	if first.ServedWithoutSim() {
		t.Fatalf("first run reported cacheHit=%v collapsed=%v, want a simulation", first.CacheHit, first.Collapsed)
	}
	if first.Result == nil {
		t.Fatal("first run carries no in-memory Result")
	}
	second, err := s.Run(ctx, quickJob)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second identical run was not a cache hit")
	}
	if !bytes.Equal(first.Bundle, second.Bundle) {
		t.Fatalf("cache hit returned different bytes (%d vs %d)", len(first.Bundle), len(second.Bundle))
	}
	if first.Hash != second.Hash {
		t.Fatalf("hashes differ: %s vs %s", first.Hash, second.Hash)
	}
	if n := simulations(s); n != 1 {
		t.Fatalf("two identical runs cost %d simulations, want 1", n)
	}
	// A different seed is a different content-address and simulates again.
	job2 := quickJob
	job2.Seed = 2
	third, err := s.Run(ctx, job2)
	if err != nil {
		t.Fatal(err)
	}
	if third.ServedWithoutSim() {
		t.Fatal("different seed was served from the cache")
	}
	if third.Hash == first.Hash {
		t.Fatal("seed change did not change the content-address")
	}
}

// TestSingleflightCollapse submits N identical jobs concurrently and checks
// they collapse into exactly one simulation, all returning identical bytes.
func TestSingleflightCollapse(t *testing.T) {
	s := quickService(t, Options{Workers: 2})
	const n = 8
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		outs []Outcome
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := s.Run(context.Background(), quickJob)
			if err != nil {
				t.Errorf("run: %v", err)
				return
			}
			mu.Lock()
			outs = append(outs, out)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(outs) != n {
		t.Fatalf("%d/%d runs succeeded", len(outs), n)
	}
	if sims := simulations(s); sims != 1 {
		t.Fatalf("%d identical concurrent runs cost %d simulations, want 1", n, sims)
	}
	served := 0
	for _, out := range outs {
		if out.ServedWithoutSim() {
			served++
		}
		if !bytes.Equal(out.Bundle, outs[0].Bundle) {
			t.Fatal("collapsed submissions returned different bundle bytes")
		}
	}
	if served != n-1 {
		t.Fatalf("%d of %d runs served without simulating, want %d", served, n, n-1)
	}
}

// TestCacheLRUEviction bounds the in-memory store: with capacity 2, the
// least recently used entry is evicted and re-misses.
func TestCacheLRUEviction(t *testing.T) {
	c, err := NewStore(StoreConfig{Entries: 2})
	if err != nil {
		t.Fatal(err)
	}
	put := func(h string) { c.Put(h, []byte(h+"-bytes")) }
	put("sha256:a")
	put("sha256:b")
	if _, ok := c.Get("sha256:a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing before eviction")
	}
	put("sha256:c") // evicts b
	if _, ok := c.Get("sha256:b"); ok {
		t.Fatal("LRU entry b survived past capacity")
	}
	for _, h := range []string{"sha256:a", "sha256:c"} {
		data, ok := c.Get(h)
		if !ok || string(data) != h+"-bytes" {
			t.Fatalf("entry %s lost or corrupted (%q, %v)", h, data, ok)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction and 2 entries", st)
	}
}

// TestDiskColdStartReload restarts the service over the same bundle
// directory and checks the successor serves the predecessor's result without
// simulating, byte-identically.
func TestDiskColdStartReload(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s1 := quickService(t, Options{CacheDir: dir})
	first, err := s1.Run(ctx, quickJob)
	if err != nil {
		t.Fatal(err)
	}

	s2 := quickService(t, Options{CacheDir: dir})
	second, err := s2.Run(ctx, quickJob)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("cold-start run was not served from the disk store")
	}
	if !bytes.Equal(first.Bundle, second.Bundle) {
		t.Fatal("cold-start reload returned different bundle bytes")
	}
	if simulations(s2) != 0 {
		t.Fatal("cold-start reload still simulated")
	}
	if st := s2.Cache().Stats(); st.DiskHits != 1 {
		t.Fatalf("cache stats = %+v, want 1 disk hit", st)
	}
	// The first disk read of an entry in a process verifies it in full.
	if n := s2.MetricsSnapshot().Get("cache.verified"); n != 1 {
		t.Fatalf("cache.verified = %d, want 1", n)
	}
	// An in-memory eviction falls back to the disk copy too.
	c, err := NewStore(StoreConfig{Entries: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Put("sha256:filler", []byte("filler")) // evicts nothing yet; hash below evicts it
	if _, ok := c.Get(first.Hash); !ok {
		t.Fatal("disk copy not served after eviction")
	}
}

// TestCacheConcurrentDiskGet checks the disk-reload path under concurrency:
// the cold read happens outside the cache mutex, so racing lookups must all
// return the correct bytes and settle on one in-memory entry.
func TestCacheConcurrentDiskGet(t *testing.T) {
	dir := t.TempDir()
	seed, err := NewStore(StoreConfig{Entries: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hash, want := fakeBundle(t, 7)
	seed.Put(hash, want)

	c, err := NewStore(StoreConfig{Entries: 4, Dir: dir}) // cold: memory empty, bundle on disk
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, ok := c.Get(hash)
			if !ok || !bytes.Equal(data, want) {
				t.Errorf("concurrent disk get = %q, %v", data, ok)
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits != n || st.Misses != 0 {
		t.Fatalf("stats = %+v, want %d hits and 0 misses", st, n)
	}
	if st.DiskHits < 1 || st.DiskHits > n {
		t.Fatalf("diskHits = %d, want within [1, %d]", st.DiskHits, n)
	}
	if st.Entries != 1 {
		t.Fatalf("%d in-memory entries after racing fills, want 1", st.Entries)
	}
}

// TestResolveRejects pins the client-error paths of job validation.
func TestResolveRejects(t *testing.T) {
	s := quickService(t, Options{})
	cases := []struct {
		name string
		job  Job
	}{
		{"no design", Job{Workload: "505.mcf_r"}},
		{"unknown design", Job{Design: "NoSuchDesign", Workload: "505.mcf_r"}},
		{"no workload", Job{Design: "Baryon"}},
		{"unknown workload", Job{Design: "Baryon", Workload: "nope"}},
		{"bad mode", Job{Design: "Baryon", Workload: "505.mcf_r", Mode: "turbo"}},
		{"negative warmup", Job{Design: "Baryon", Workload: "505.mcf_r", Warmup: -1}},
	}
	for _, tc := range cases {
		if _, err := s.Resolve(tc.job); err == nil {
			t.Errorf("%s: resolved without error", tc.name)
		}
	}
	// Spelling the default explicitly resolves to the same hash as leaving
	// it unset: the key records effective values.
	a, err := s.Resolve(quickJob)
	if err != nil {
		t.Fatal(err)
	}
	explicit := quickJob
	explicit.Mode = "cache"
	explicit.Accesses = quickConfig().AccessesPerCore
	b, err := s.Resolve(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Fatalf("equivalent jobs hash differently: %s vs %s", a.Hash, b.Hash)
	}
}

// TestSubmitAsync covers the daemon's job table: submit, poll to done,
// fetch the result, and dedupe of repeated submissions.
func TestSubmitAsync(t *testing.T) {
	s := quickService(t, Options{})
	ctx := context.Background()
	st, err := s.Submit(ctx, quickJob, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hash == "" || (st.State != StateQueued && st.State != StateRunning) {
		t.Fatalf("fresh submission status = %+v", st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, ok := s.Status(st.Hash)
		if !ok {
			t.Fatal("submitted job vanished")
		}
		if cur.State == StateDone {
			break
		}
		if cur.State == StateFailed {
			t.Fatalf("job failed: %s", cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	data, ok := s.ResultBytes(st.Hash)
	if !ok || len(data) == 0 {
		t.Fatal("no result bytes for a done job")
	}
	// Re-submitting the identical job reuses the table entry.
	again, err := s.Submit(ctx, quickJob, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Hash != st.Hash || again.State != StateDone {
		t.Fatalf("resubmission status = %+v, want done %s", again, st.Hash)
	}
	if simulations(s) != 1 {
		t.Fatalf("dedupe failed: %d simulations", simulations(s))
	}
}

// TestSyncRunFinishesJobTable is the regression test for the stale-"running"
// bug: a synchronous miss creates a job-table entry, and once the run
// returns, that entry must be done — and a later async Submit of the same
// job must see it as done instead of finding a stuck entry it won't relaunch.
func TestSyncRunFinishesJobTable(t *testing.T) {
	s := quickService(t, Options{})
	ctx := context.Background()
	out, err := s.Run(ctx, quickJob)
	if err != nil {
		t.Fatal(err)
	}
	if out.ServedWithoutSim() {
		t.Fatalf("first run did not simulate: %+v", out)
	}
	st, ok := s.Status(out.Hash)
	if !ok {
		t.Fatal("no status for a synchronously completed hash")
	}
	if st.State != StateDone {
		t.Fatalf("after sync run, Status = %q, want %q", st.State, StateDone)
	}
	// A subsequent Submit of the identical job must report done immediately:
	// the old bug left the entry "running" forever, so a polling client hung.
	sub, err := s.Submit(ctx, quickJob, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sub.State != StateDone {
		t.Fatalf("Submit after sync run = %q, want %q", sub.State, StateDone)
	}
	if n := simulations(s); n != 1 {
		t.Fatalf("%d simulations, want 1", n)
	}
}

// TestJobTableBounded pins the retention bound: finished job-table entries
// beyond the cap are evicted, and their status is still served from the
// result store.
func TestJobTableBounded(t *testing.T) {
	s := quickService(t, Options{CacheEntries: 2})
	ctx := context.Background()
	var hashes []string
	for seed := uint64(1); seed <= 5; seed++ {
		job := quickJob
		job.Seed = seed
		out, err := s.Run(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, out.Hash)
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n > 2 {
		t.Fatalf("job table holds %d finished entries, want <= 2 (the cache cap)", n)
	}
	// The newest hash survived both bounds and still reports done from the
	// table or the store.
	st, ok := s.Status(hashes[len(hashes)-1])
	if !ok || st.State != StateDone {
		t.Fatalf("newest hash status = %+v, %v; want done", st, ok)
	}
}

// TestDrainWaitRace hammers the Drain+Wait vs. submission race under the
// race detector: after Wait returns, no accepted job may still be starting,
// and every submission either ran or was refused with ErrDraining.
func TestDrainWaitRace(t *testing.T) {
	for i := 0; i < 20; i++ {
		s := quickService(t, Options{})
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				<-start
				job := quickJob
				job.Seed = seed
				if _, err := s.Run(context.Background(), job); err != nil && !errors.Is(err, ErrDraining) {
					t.Errorf("run: %v", err)
				}
			}(uint64(g + 1))
		}
		close(start)
		s.Drain()
		wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := s.Wait(wctx); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		cancel()
		simsAtWait := simulations(s)
		wg.Wait()
		if sims := simulations(s); sims != simsAtWait {
			t.Fatalf("a job started after Wait returned (%d -> %d simulations)", simsAtWait, sims)
		}
	}
}

// TestDrainRejects checks a draining service refuses new work but completes
// what it accepted.
func TestDrainRejects(t *testing.T) {
	s := quickService(t, Options{})
	ctx := context.Background()
	if _, err := s.Run(ctx, quickJob); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if _, err := s.Run(ctx, quickJob); !errors.Is(err, ErrDraining) {
		t.Fatalf("Run after Drain: %v, want ErrDraining", err)
	}
	if _, err := s.Submit(ctx, quickJob, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Drain: %v, want ErrDraining", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Wait(wctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestStatusFromStoreAfterRestart: a hash simulated by a previous process
// (same cache dir) reports done even though this process never ran it.
func TestStatusFromStoreAfterRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := quickService(t, Options{CacheDir: dir})
	out, err := s1.Run(context.Background(), quickJob)
	if err != nil {
		t.Fatal(err)
	}
	s2 := quickService(t, Options{CacheDir: dir})
	st, ok := s2.Status(out.Hash)
	if !ok || st.State != StateDone {
		t.Fatalf("restarted status = %+v, %v; want done", st, ok)
	}
	if _, ok := s2.Status("sha256:unknown"); ok {
		t.Fatal("unknown hash reported a status")
	}
}

// fillWorkers occupies every worker-pool slot so the next simulation blocks
// at the pool, and returns the (idempotent) release function.
func fillWorkers(s *Service) func() {
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for i := 0; i < cap(s.sem); i++ {
				<-s.sem
			}
		})
	}
}

// waitCond polls until cond holds or the deadline passes.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSyncAdmissionBound pins the sync-waiter bound: with the pool saturated
// and the one allowed waiter parked, the next cache-miss run is refused with
// ErrOverloaded immediately — but a cache hit is never refused.
func TestSyncAdmissionBound(t *testing.T) {
	s := quickService(t, Options{Workers: 1, MaxSyncWaiters: 1})
	ctx := context.Background()
	release := fillWorkers(s)
	t.Cleanup(release)

	done := make(chan error, 1)
	go func() {
		_, err := s.Run(ctx, quickJob)
		done <- err
	}()
	waitCond(t, "the first run to park as a sync waiter", func() bool {
		return s.syncWaiters.Load() == 1
	})
	over := quickJob
	over.Seed = 2
	if _, err := s.Run(ctx, over); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("run past the waiter bound: %v, want ErrOverloaded", err)
	}
	if n := s.admissionRejected.Load(); n != 1 {
		t.Fatalf("admission.rejected = %d, want 1", n)
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("parked run failed after workers freed: %v", err)
	}

	// Saturate the bound again; a hit for the now-cached job must still land:
	// serving stored bytes parks nothing.
	release2 := fillWorkers(s)
	t.Cleanup(release2)
	done2 := make(chan error, 1)
	go func() {
		miss := quickJob
		miss.Seed = 3
		_, err := s.Run(ctx, miss)
		done2 <- err
	}()
	waitCond(t, "the second waiter to park", func() bool {
		return s.syncWaiters.Load() == 1
	})
	out, err := s.Run(ctx, quickJob)
	if err != nil || !out.CacheHit {
		t.Fatalf("cache hit refused at the waiter bound: %+v, %v", out, err)
	}
	release2()
	if err := <-done2; err != nil {
		t.Fatalf("second parked run: %v", err)
	}
}

// TestAsyncQueueBound pins the async admission bound: beyond MaxQueue
// accepted-but-unfinished submissions, Submit refuses with ErrOverloaded;
// identical re-submissions reuse the existing entry and are never refused;
// once the queue drains, the refused job is admitted.
func TestAsyncQueueBound(t *testing.T) {
	s := quickService(t, Options{Workers: 1, MaxQueue: 1})
	ctx := context.Background()
	release := fillWorkers(s)
	t.Cleanup(release)

	st, err := s.Submit(ctx, quickJob, 0)
	if err != nil {
		t.Fatal(err)
	}
	over := quickJob
	over.Seed = 2
	if _, err := s.Submit(ctx, over, 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit past the queue bound: %v, want ErrOverloaded", err)
	}
	if _, err := s.Submit(ctx, quickJob, 0); err != nil {
		t.Fatalf("identical re-submission refused: %v", err)
	}
	if n := s.admissionRejected.Load(); n != 1 {
		t.Fatalf("admission.rejected = %d, want 1", n)
	}

	release()
	waitCond(t, "the accepted job to finish", func() bool {
		cur, ok := s.Status(st.Hash)
		return ok && cur.State == StateDone
	})
	waitCond(t, "the refused job to be admitted", func() bool {
		_, err := s.Submit(ctx, over, 0)
		if err != nil && !errors.Is(err, ErrOverloaded) {
			t.Fatalf("resubmit: %v", err)
		}
		return err == nil
	})
}

// TestDrainUnderRejectedSubmissions drives Drain concurrently with a burst of
// submissions against a full queue: every refusal must be ErrOverloaded or
// ErrDraining, Wait must return, and the one accepted job must complete.
func TestDrainUnderRejectedSubmissions(t *testing.T) {
	s := quickService(t, Options{Workers: 1, MaxQueue: 1})
	ctx := context.Background()
	release := fillWorkers(s)
	t.Cleanup(release)

	st, err := s.Submit(ctx, quickJob, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			<-start
			job := quickJob
			job.Seed = seed
			if _, err := s.Submit(ctx, job, 0); err != nil &&
				!errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrDraining) {
				t.Errorf("submit seed %d: %v", seed, err)
			}
		}(uint64(g + 2))
	}
	close(start)
	s.Drain()
	release()
	wg.Wait()
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Wait(wctx); err != nil {
		t.Fatalf("Wait under rejected submissions: %v", err)
	}
	cur, ok := s.Status(st.Hash)
	if !ok || cur.State != StateDone {
		t.Fatalf("accepted job after drain = %+v, %v; want done", cur, ok)
	}
}

// TestDeadlineExceededCounted: a run whose budget expires while queued for a
// worker fails with DeadlineExceeded and increments the deadline counter.
func TestDeadlineExceededCounted(t *testing.T) {
	s := quickService(t, Options{Workers: 1})
	release := fillWorkers(s)
	t.Cleanup(release)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Run(ctx, quickJob); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run with an expired budget: %v, want DeadlineExceeded", err)
	}
	if n := s.deadlinesExceeded.Load(); n != 1 {
		t.Fatalf("deadline.exceeded = %d, want 1", n)
	}
}

// TestWorkerPoolBounds floods a single-worker service with distinct jobs and
// checks they all complete (the pool queues rather than rejects).
func TestWorkerPoolBounds(t *testing.T) {
	s := quickService(t, Options{Workers: 1})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			job := quickJob
			job.Seed = seed
			if _, err := s.Run(context.Background(), job); err != nil {
				errs <- fmt.Errorf("seed %d: %w", seed, err)
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if sims := simulations(s); sims != 4 {
		t.Fatalf("%d simulations, want 4 distinct", sims)
	}
}

// TestSyncFollowerOutlivesLeaderDeadline: a sync run without a deadline
// that collapses into an in-flight run must not inherit the deadline of the
// caller that started it. The leader times out; the follower still gets the
// bundle from the one simulation.
func TestSyncFollowerOutlivesLeaderDeadline(t *testing.T) {
	s := quickService(t, Options{Workers: 1, MaxSyncWaiters: 2})
	release := fillWorkers(s)
	t.Cleanup(release)

	lctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	leader := make(chan error, 1)
	go func() {
		_, err := s.Run(lctx, quickJob)
		leader <- err
	}()
	waitCond(t, "the leader to park at the worker pool", func() bool { return s.waiting.Load() == 1 })
	follower := make(chan error, 1)
	var out Outcome
	go func() {
		var err error
		out, err = s.Run(context.Background(), quickJob)
		follower <- err
	}()
	waitCond(t, "the follower to park", func() bool { return s.syncWaiters.Load() == 2 })
	if err := <-leader; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader: %v, want DeadlineExceeded", err)
	}
	release()
	if err := <-follower; err != nil {
		t.Fatalf("follower without a deadline failed: %v", err)
	}
	if len(out.Bundle) == 0 {
		t.Fatal("follower got no bundle")
	}
	if n := simulations(s); n != 1 {
		t.Fatalf("%d simulations, want 1", n)
	}
}

// TestSubmitOutlivesSyncDeadline: an async submission that arrives while a
// sync miss for the same hash is in flight waits on its own context, so the
// sync caller's deadline cannot fail the async job.
func TestSubmitOutlivesSyncDeadline(t *testing.T) {
	s := quickService(t, Options{Workers: 1})
	release := fillWorkers(s)
	t.Cleanup(release)

	sctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	syncErr := make(chan error, 1)
	go func() {
		_, err := s.Run(sctx, quickJob)
		syncErr <- err
	}()
	waitCond(t, "the sync run to park at the worker pool", func() bool { return s.waiting.Load() == 1 })
	st, err := s.Submit(context.Background(), quickJob, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-syncErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sync run: %v, want DeadlineExceeded", err)
	}
	release()
	var cur JobStatus
	waitCond(t, "the async job to finish", func() bool {
		var ok bool
		cur, ok = s.Status(st.Hash)
		return ok && (cur.State == StateDone || cur.State == StateFailed)
	})
	if cur.State != StateDone {
		t.Fatalf("async job = %+v, want done", cur)
	}
	if _, ok := s.ResultBytes(st.Hash); !ok {
		t.Fatal("done async job has no result")
	}
}

// TestStatusDoneAfterRetriedFailure: a hash whose async submission failed
// and that a later sync run completes reports done, matching the result
// endpoint, instead of the stale failure.
func TestStatusDoneAfterRetriedFailure(t *testing.T) {
	s := quickService(t, Options{Workers: 1})
	release := fillWorkers(s)
	t.Cleanup(release)

	actx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	st, err := s.Submit(actx, quickJob, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "the async submission to give up", func() bool {
		cur, ok := s.Status(st.Hash)
		return !ok || cur.State == StateFailed
	})
	release()
	if _, err := s.Run(context.Background(), quickJob); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ResultBytes(st.Hash); !ok {
		t.Fatal("sync run left no result")
	}
	if cur, ok := s.Status(st.Hash); !ok || cur.State != StateDone {
		t.Fatalf("status after a successful retry = %+v, %v; want done", cur, ok)
	}
}

// TestResubmitAfterStoreEviction: with a memory-only store, a hash the LRU
// has evicted must not report done while its result is gone; resubmitting
// it runs it again and the result is served.
func TestResubmitAfterStoreEviction(t *testing.T) {
	s := quickService(t, Options{CacheEntries: 2})
	ctx := context.Background()
	run := func(seed uint64) string {
		job := quickJob
		job.Seed = seed
		out, err := s.Run(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		return out.Hash
	}
	run(1)
	h2 := run(2)
	run(1) // a hit: seed 1 becomes the most recently used bundle
	run(3) // evicts seed 2 from the store
	if _, ok := s.ResultBytes(h2); ok {
		t.Fatal("seed 2 was not evicted; the test premise does not hold")
	}
	job := quickJob
	job.Seed = 2
	if _, err := s.Submit(ctx, job, 0); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "the resubmitted job to finish", func() bool {
		cur, ok := s.Status(h2)
		return ok && (cur.State == StateDone || cur.State == StateFailed)
	})
	if _, ok := s.ResultBytes(h2); !ok {
		cur, _ := s.Status(h2)
		t.Fatalf("status %q but no result for the resubmitted hash", cur.State)
	}
}

// TestLastWaiterCancelsRun pins the last-waiter rule: a lone sync caller
// whose deadline fires while its simulation is running cancels the run and
// frees the worker.
func TestLastWaiterCancelsRun(t *testing.T) {
	s := quickService(t, Options{Workers: 1})
	long := quickJob
	long.Accesses = 1 << 30
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(ctx, long)
		done <- err
	}()
	waitCond(t, "the run to hold a worker", func() bool { return simulations(s) == 1 })
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run: %v, want DeadlineExceeded", err)
	}
	waitCond(t, "the worker to be freed", func() bool { return len(s.sem) == 0 })
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := s.Wait(wctx); err != nil {
		t.Fatalf("Wait after the cancelled run: %v", err)
	}
}

// TestFailedRecordsRetainedAndRetried: a run that fails stays in the job
// table as failed (bounded by the cache capacity), and resubmitting it
// starts a fresh run instead of returning the stale failure.
func TestFailedRecordsRetainedAndRetried(t *testing.T) {
	// Every run of this design fails: the service's pool entry point hands
	// its pairs a workload that panics when the runner asks it for streams,
	// inside experiment's per-pair panic isolation. The registry is global
	// and outlives one test run (-count).
	if _, ok := experiment.Lookup("Poisoned-Service"); !ok {
		if err := experiment.Register(experiment.DesignSpec{Name: "Poisoned-Service", Kind: experiment.KindBaryon}); err != nil {
			t.Fatal(err)
		}
	}
	s := quickService(t, Options{CacheEntries: 2})
	s.runPairs = poisonPairs("Poisoned-Service")
	ctx := context.Background()
	submitFailed := func(seed uint64) string {
		t.Helper()
		st, err := s.Submit(ctx, Job{Design: "Poisoned-Service", Workload: "505.mcf_r", Seed: seed}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var cur JobStatus
		waitCond(t, "the poisoned run to fail", func() bool {
			cur, _ = s.Status(st.Hash)
			return cur.State == StateFailed
		})
		if !strings.Contains(cur.Error, "panicked") {
			t.Fatalf("failed status error = %q, want the captured panic", cur.Error)
		}
		return st.Hash
	}
	h1 := submitFailed(1)
	submitFailed(1)
	if n := simulations(s); n != 2 {
		t.Fatalf("resubmitting a failed job ran %d simulations in total, want 2", n)
	}
	submitFailed(2)
	submitFailed(3)
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 2 {
		t.Fatalf("job table holds %d failed records, want 2 (the cache cap)", n)
	}
	if _, ok := s.Status(h1); ok {
		t.Fatal("the oldest failed record survived past the bound")
	}
}

// ServedWithoutSim reports whether this submission cost zero simulations.
func (o Outcome) ServedWithoutSim() bool { return o.CacheHit || o.Collapsed }
