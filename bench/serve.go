package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"baryon/internal/service"
)

// The service runs with cmd/baryonsimd's default admission and timeout
// flags.
const (
	daemonMaxQueue       = 256
	daemonMaxSyncWaiters = 64
	daemonWriteTimeout   = time.Minute
)

// opHeader carries a request's op id, so the traced run can pair the
// handler's time with the client's.
const opHeader = "X-Bench-Op"

// recheckSample is how many served bundles a run recomputes directly.
const recheckSample = 8

// server is an in-process baryonsimd: a Service with its result store in a
// temp dir, behind the daemon's HTTP handler on a loopback port.
type server struct {
	dir    string
	svc    *service.Service
	srv    *http.Server
	served chan error
	url    string
	hc     *http.Client
	// timed wraps the handler in a traced run; client records each
	// request's time to pair with it.
	timed  *timedHandler
	mu     sync.Mutex
	client map[int]call
}

func startServer(log io.Writer, traced bool) (*server, error) {
	dir, err := os.MkdirTemp("", "baryon-bench-*")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Options{
		CacheEntries:   serveStoreEntries,
		CacheDir:       filepath.Join(dir, "store"),
		MaxQueue:       daemonMaxQueue,
		MaxSyncWaiters: daemonMaxSyncWaiters,
		Log:            log,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{
		dir:    dir,
		svc:    svc,
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/api/v1/run",
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxInFlight}},
	}
	var h http.Handler = service.NewHandlerOpts(svc, service.HandlerOptions{WriteTimeout: daemonWriteTimeout, Log: log})
	if traced {
		s.timed = &timedHandler{next: h, calls: map[int]call{}}
		s.client = map[int]call{}
		h = s.timed
	}
	s.srv = &http.Server{Handler: h}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *server) storeDir() string { return filepath.Join(s.dir, "store") }

// close stops the server, waits for its jobs and deletes its store.
func (s *server) close() {
	s.srv.Close()
	<-s.served
	s.hc.CloseIdleConnections()
	s.svc.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = s.svc.Wait(ctx) // jobs left after a minute die with the process
	os.RemoveAll(s.dir)
}

// reply is what a run request returned.
type reply struct {
	data        []byte
	cache, hash string
}

// post sends one job to POST /api/v1/run.
func (s *server) post(ctx context.Context, r resolved, op, tid int) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(r.body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, strconv.Itoa(op))
	start := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	if s.client != nil {
		s.mu.Lock()
		s.client[op] = call{start: start, dur: time.Since(start), tid: tid}
		s.mu.Unlock()
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return reply{data: data, cache: resp.Header.Get(service.CacheHeader), hash: resp.Header.Get(service.HashHeader)}, nil
}

// cacheStatus names how the service answered, as the X-Baryon-Cache header
// does.
func cacheStatus(out service.Outcome) string {
	switch {
	case out.CacheHit:
		return "hit"
	case out.Collapsed:
		return "collapsed"
	}
	return "miss"
}

// checkReply checks a served bundle: no error, the spec hash the benchmark
// resolved itself, and the same bytes as every other bundle of that hash.
func (b *bench) checkReply(r resolved, rep reply, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", r.name(), err)
	}
	if rep.hash != r.hash {
		return fmt.Errorf("%s: served spec hash %s, want %s", r.name(), rep.hash, r.hash)
	}
	return b.checkRef(r, rep.data)
}

// runServe sets a serve workload up (a fresh service, its warm keys
// simulated into the store, then one HTTP request per key), measures the
// client's closed loop until the deadline, and recomputes a sample of the
// served bundles directly.
func (b *bench) runServe() error {
	spec := b.w.serve
	seeds := make([]uint64, spec.seeds)
	for i := range seeds {
		seeds[i] = runSeed(b.seed, i)
	}
	keys, err := grid(spec.designs, spec.workloads, seeds, spec.accesses, 0)
	if err != nil {
		return err
	}
	// A mix without fresh jobs never misses in its loop, so a traced run
	// times its set-up's misses as the service's miss path.
	setupMisses := b.traced && spec.freshEvery == 0
	var s *server
	for i := 0; i < b.reps; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		if s, err = startServer(b.log, b.traced); err != nil {
			return err
		}
		for _, r := range keys {
			t := time.Now()
			out, err := s.svc.Run(b.ctx, r.job)
			if setupMisses {
				b.lay.serviceRun(cacheStatus(out), time.Since(t))
			}
			if err == nil && cacheStatus(out) != "miss" {
				err = fmt.Errorf("%s: set-up run answered %s, want miss", r.name(), cacheStatus(out))
			}
			b.done(b.checkReply(r, reply{data: out.Bundle, hash: out.Hash}, err))
		}
		for _, r := range keys {
			rep, err := s.post(b.ctx, r, b.opID(), 0)
			b.done(b.checkReply(r, rep, err))
		}
		b.setupDone(t0)
	}
	defer s.close()

	a0, g0 := memStats()
	gen := newRequestGen(spec, keys, b.seed)
	b.measure(func(deadline time.Time) { b.serveLoop(s, gen, deadline) })
	a1, g1 := memStats()

	// serve-hit recomputes keys spread over the whole set; serve-mixed its
	// first fresh jobs, whose first request was a miss.
	var check []resolved
	if spec.freshEvery > 0 {
		for i := 0; i < recheckSample; i++ {
			r, err := freshJob(spec, b.seed, i)
			if err != nil {
				return err
			}
			check = append(check, r)
		}
	} else {
		check = sample(keys, recheckSample)
	}
	// A traced run recomputes each of them traced and untraced, which
	// also gives the simulator layers the serve loop does not reach.
	for i, r := range check {
		if b.traced {
			_, err := b.tracedPair(0, r, i%2 == 0)
			b.done(err)
			continue
		}
		data, err := simRun(b.ctx, r)
		if err == nil {
			err = b.checkRef(r, data)
		}
		b.done(err)
	}
	if !b.traced {
		return nil
	}
	b.lay.runtime(a1-a0, g1-g0)
	b.probeStore(s, newRequestGen(spec, keys, b.seed), b.ops)
	s.collect(b.lay, b.rec)
	return nil
}

// serveLoop sends the request sequence from one client, each request only
// when the last one has been answered. The copies of a fresh job go out
// together, the second from a goroutine of its own, and the loop waits for
// both.
func (b *bench) serveLoop(s *server, gen *requestGen, deadline time.Time) {
	for i := 0; b.more(i, deadline); {
		r, copies, err := gen.next()
		if err != nil {
			b.done(err)
			return
		}
		var wg sync.WaitGroup
		for c := 1; c < copies; c++ {
			wg.Add(1)
			go func(tid, i int) {
				defer wg.Done()
				b.serveOp(s, tid, i, r)
			}(c, i+c)
		}
		b.serveOp(s, 0, i, r)
		wg.Wait()
		i += copies
		b.tick()
	}
}

// serveOp sends one request and checks the answer. In a traced run every
// second request calls Service.Run directly instead, so the service core
// is timed without HTTP on the same request stream.
func (b *bench) serveOp(s *server, tid, i int, r resolved) {
	op := b.opID()
	direct := b.traced && i%2 == 1
	start := time.Now()
	var rep reply
	var err error
	if direct {
		var out service.Outcome
		out, err = s.svc.Run(b.ctx, r.job)
		rep = reply{data: out.Bundle, cache: cacheStatus(out), hash: out.Hash}
	} else {
		rep, err = s.post(b.ctx, r, op, tid)
	}
	lat := time.Since(start)
	if b.traced {
		b.rec.span("op", tid, start, lat, spanArgs{Op: op, Job: r.name(), Cache: rep.cache})
		if direct {
			b.lay.serviceRun(rep.cache, lat)
			b.rec.span("service.run", tid, start, lat, spanArgs{Op: op, Parent: "op", Cache: rep.cache})
		}
	}
	b.op(0, lat, b.checkReply(r, rep, err))
}

// requestGen produces a serve workload's request sequence from the seed:
// warm keys drawn uniformly, and, with freshEvery > 0, one fresh job per
// block of that many requests, requested twice at once.
type requestGen struct {
	spec  *serveSpec
	keys  []resolved
	seed  uint64
	rng   *rand.Rand
	fresh int
	// sent counts the requests handed out; at is where the current
	// block's fresh job goes.
	sent, at int
}

func newRequestGen(spec *serveSpec, keys []resolved, seed uint64) *requestGen {
	return &requestGen{spec: spec, keys: keys, seed: seed, rng: rand.New(rand.NewSource(int64(seed)))}
}

// next returns the next job and how many copies of it to send at once.
func (g *requestGen) next() (resolved, int, error) {
	if n := g.spec.freshEvery; n > 0 {
		if g.sent%n == 0 {
			g.at = g.sent + g.rng.Intn(n-maxInFlight+1)
		}
		if g.sent == g.at {
			r, err := freshJob(g.spec, g.seed, g.fresh)
			g.fresh++
			g.sent += maxInFlight
			return r, maxInFlight, err
		}
	}
	g.sent++
	return g.keys[g.rng.Intn(len(g.keys))], 1, nil
}

// freshJob is the i-th fresh job of a serve workload: the designs and
// workloads in turn, each with a run seed of its own.
func freshJob(spec *serveSpec, seed uint64, i int) (resolved, error) {
	nd := len(spec.freshDesigns)
	return resolve(service.Job{
		Design:   spec.freshDesigns[i%nd],
		Workload: spec.freshWorkloads[i/nd%len(spec.freshWorkloads)],
		Seed:     runSeed(seed, i),
		Accesses: spec.freshAccesses,
		Warmup:   spec.freshWarmup,
	})
}
