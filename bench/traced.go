package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"baryon/internal/config"
	"baryon/internal/cpu"
	"baryon/internal/datagen"
	"baryon/internal/experiment"
	"baryon/internal/hybrid"
	"baryon/internal/mem"
	"baryon/internal/report"
	"baryon/internal/service"
	"baryon/internal/sim"
	"baryon/internal/trace"
)

// The traced run times each layer by wrapping the values the benchmark
// hands to it: the trace source's streams, the controller the design's
// factory builds, and the HTTP handler. Nothing inside internal/ changes,
// and the bundles of a traced run must equal the untraced run's.

// timedSource wraps a trace source so that every stream's Next is timed.
type timedSource struct {
	src trace.Source
	clk *runClock
}

func (s timedSource) SourceName() string    { return s.src.SourceName() }
func (s timedSource) ValueMix() datagen.Mix { return s.src.ValueMix() }
func (s timedSource) Streams(cores int, fastBlocks, seed uint64) []trace.Streamer {
	streams := s.src.Streams(cores, fastBlocks, seed)
	for i, st := range streams {
		streams[i] = timedStreamer{st: st, clk: s.clk}
	}
	return streams
}

type timedStreamer struct {
	st  trace.Streamer
	clk *runClock
}

func (t timedStreamer) Next() trace.Access {
	start := time.Now()
	a := t.st.Next()
	t.clk.traceBusy += time.Since(start)
	t.clk.traceCalls++
	return a
}

// timedController times Access and forwards the optional interfaces the
// runner reads bundle statistics through. Every controller kind is built
// on the shared engine and so provides Engine, FastDevice and SlowDevice;
// AddInstructions does nothing for kinds that do not count instructions,
// as the runner does. The compression and remap-cache summaries of
// cpu.Result are not forwarded: bundles do not carry them.
type timedController struct {
	hybrid.Controller
	clk *runClock
}

func (c *timedController) Access(now, addr uint64, write bool, data []byte) hybrid.Result {
	start := time.Now()
	r := c.Controller.Access(now, addr, write, data)
	c.clk.ctrlBusy += time.Since(start)
	c.clk.ctrlCalls++
	if write {
		c.clk.ctrlWrites++
	}
	return r
}

func (c *timedController) Engine() *hybrid.Engine {
	return c.Controller.(hybrid.EngineProvider).Engine()
}

func (c *timedController) FastDevice() *mem.Device {
	return c.Controller.(cpu.DeviceProvider).FastDevice()
}

func (c *timedController) SlowDevice() *mem.Device {
	return c.Controller.(cpu.DeviceProvider).SlowDevice()
}

func (c *timedController) AddInstructions(n uint64) {
	if s, ok := c.Controller.(hybrid.InstructionSink); ok {
		s.AddInstructions(n)
	}
}

// tracedRun runs a job as experiment.RunPairCtx does, with the trace
// source and the controller wrapped, then builds, renders and decodes its
// bundle. It returns the bundle and the time the untraced path's steps
// took (construct, run, build and render).
func (b *bench) tracedRun(tid, op int, r resolved) ([]byte, time.Duration, error) {
	spec, ok := experiment.Lookup(r.job.Design)
	if !ok {
		return nil, 0, experiment.UnknownDesignError(r.job.Design)
	}
	if err := experiment.ValidateSpec(spec, r.cfg); err != nil {
		return nil, 0, err
	}
	factory := experiment.FactorySpec(spec)
	clk := &runClock{}
	t0 := time.Now()
	runner := cpu.NewRunnerSource(r.cfg, timedSource{src: r.w, clk: clk},
		func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
			return &timedController{Controller: factory(cfg, store, stats), clk: clk}
		})
	t1 := time.Now()
	res, err := runner.RunCtx(b.ctx)
	t2 := time.Now()
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", r.name(), err)
	}
	res.Design = r.job.Design
	bd, err := report.New(r.key, res)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", r.name(), err)
	}
	t3 := time.Now()
	data, err := bd.MarshalCanonical()
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", r.name(), err)
	}
	t4 := time.Now()
	_, err = report.Decode(data)
	t5 := time.Now()
	if err != nil {
		return nil, 0, fmt.Errorf("%s: bundle fails strict decoding: %w", r.name(), err)
	}
	b.lay.run(clk, t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), len(data))
	b.lay.decoded(t5.Sub(t4))
	b.lay.count(r.hash, res)
	child := spanArgs{Op: op, Parent: "op"}
	b.rec.span("cpu.construct", tid, t0, t1.Sub(t0), child)
	b.rec.span("cpu.run", tid, t1, t2.Sub(t1), spanArgs{
		Op: op, Parent: "op",
		TraceCalls: clk.traceCalls, TraceBusyUs: us(clk.traceBusy),
		CtrlCalls: clk.ctrlCalls, CtrlWrites: clk.ctrlWrites, CtrlBusyUs: us(clk.ctrlBusy),
		SelfUs: us(t2.Sub(t1) - clk.traceBusy - clk.ctrlBusy),
	})
	b.rec.span("report.new", tid, t2, t3.Sub(t2), child)
	b.rec.span("report.marshal", tid, t3, t4.Sub(t3), child)
	b.rec.span("report.decode", tid, t4, t5.Sub(t4), child)
	return data, t4.Sub(t0), nil
}

// tracedPair runs a job traced and untraced, in the given order, and
// checks that both give the same bundle as every earlier run of the job.
func (b *bench) tracedPair(tid int, r resolved, tracedFirst bool) (time.Duration, error) {
	op := b.opID()
	start := time.Now()
	var tData, uData []byte
	var tDur, uDur time.Duration
	var tErr, uErr error
	traced := func() { tData, tDur, tErr = b.tracedRun(tid, op, r) }
	untraced := func() {
		t := time.Now()
		uData, uErr = simRun(b.ctx, r)
		uDur = time.Since(t)
		b.rec.span("run.untraced", tid, t, uDur, spanArgs{Op: op, Parent: "op"})
	}
	if tracedFirst {
		traced()
		untraced()
	} else {
		untraced()
		traced()
	}
	dur := time.Since(start)
	b.rec.span("op", tid, start, dur, spanArgs{Op: op, Job: r.name()})
	if err := errors.Join(tErr, uErr); err != nil {
		return dur, err
	}
	if !bytes.Equal(tData, uData) {
		return dur, fmt.Errorf("%s: traced bundle differs from the untraced one", r.name())
	}
	b.lay.pair(tDur, uDur)
	return dur, b.checkRef(r, uData)
}

// call is one timed HTTP request, seen from the client or the handler.
type call struct {
	start time.Time
	dur   time.Duration
	tid   int
}

// timedHandler times the service's HTTP handler per request, keyed by the
// op id the client sends.
type timedHandler struct {
	next  http.Handler
	mu    sync.Mutex
	calls map[int]call
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	dur := time.Since(start)
	if op, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil {
		h.mu.Lock()
		h.calls[op] = call{start: start, dur: dur}
		h.mu.Unlock()
	}
}

// collect pairs every client request with its handler call (transport time
// is the difference), records both as spans, and adds the service's job
// counters.
func (s *server) collect(l *layers, rec *recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.timed.mu.Lock()
	defer s.timed.mu.Unlock()
	for op, c := range s.client {
		h, ok := s.timed.calls[op]
		if !ok {
			continue
		}
		l.add(&l.handlerUs, us(h.dur))
		l.add(&l.transportUs, us(c.dur-h.dur))
		rec.span("http.request", c.tid, c.start, c.dur, spanArgs{Op: op, Parent: "op"})
		rec.span("http.handler", c.tid, h.start, h.dur, spanArgs{Op: op, Parent: "http.request"})
	}
	l.serviceCounts(s.svc.MetricsSnapshot())
}

// probeStore replays the head of the request stream against the store
// alone, timing Get, then times Put for the first distinct keys.
func (b *bench) probeStore(s *server, gen *requestGen, n int) {
	store := s.svc.Cache()
	var puts []resolved
	seen := map[string]bool{}
	for i := 0; i < min(n, storeProbe); i++ {
		r, _, err := gen.next()
		if err != nil {
			break
		}
		// A fresh job the loop ended before sending is not in the store.
		if _, ok := b.timedGet(store, b.opID(), "", r); ok && !seen[r.hash] && len(puts) < serveStoreEntries {
			seen[r.hash] = true
			puts = append(puts, r)
		}
	}
	for _, r := range puts {
		data, _ := store.Get(r.hash)
		b.timedPut(store, b.opID(), "", r, data)
	}
}

// storeProbe bounds how many requests probeStore replays.
const storeProbe = 4000

// timedGet reads a bundle from store, timed as a memory or a disk read by
// the store's DiskHits counter. A miss is not timed.
func (b *bench) timedGet(store *service.Cache, op int, parent string, r resolved) ([]byte, bool) {
	before := store.Stats().DiskHits
	start := time.Now()
	data, ok := store.Get(r.hash)
	d := time.Since(start)
	if !ok {
		return nil, false
	}
	where := "memory"
	if store.Stats().DiskHits > before {
		where = "disk"
		b.lay.add(&b.lay.getDiskUs, us(d))
	} else {
		b.lay.add(&b.lay.getMemUs, us(d))
	}
	b.rec.span("store.get", 0, start, d, spanArgs{Op: op, Parent: parent, Job: r.name(), Cache: where})
	return data, true
}

func (b *bench) timedPut(store *service.Cache, op int, parent string, r resolved, data []byte) {
	start := time.Now()
	store.Put(r.hash, data)
	d := time.Since(start)
	b.lay.add(&b.lay.putMs, ms(d))
	b.rec.span("store.put", 0, start, d, spanArgs{Op: op, Parent: parent, Job: r.name()})
}

// serviceSidePass ends a traced sim run. The sim loop never reaches the
// service, its store or HTTP, yet a traced run reports every per-layer
// metric, so this pass sends each job through a fresh service: a miss and
// then a hit through Service.Run, a hit over HTTP, a store read and write in
// memory, and a read from disk. Every bundle must equal the sim loop's. The
// detail line lists the metrics this pass supplies (outsideLoopMetrics).
func (b *bench) serviceSidePass(jobs []resolved) error {
	s, err := startServer(b.log, true)
	if err != nil {
		return err
	}
	defer s.close()
	// A second store over the same directory starts with nothing in
	// memory, so it reads what the service wrote from disk.
	cold, err := service.NewStore(service.StoreConfig{Entries: serveStoreEntries, Dir: s.storeDir(), Log: b.log})
	if err != nil {
		return err
	}
	for _, r := range jobs {
		op := b.opID()
		start := time.Now()
		for _, want := range []string{"miss", "hit"} {
			t := time.Now()
			out, err := s.svc.Run(b.ctx, r.job)
			d := time.Since(t)
			b.lay.serviceRun(cacheStatus(out), d)
			b.rec.span("service.run", 0, t, d, spanArgs{Op: op, Parent: "op", Cache: cacheStatus(out)})
			if err == nil && cacheStatus(out) != want {
				err = fmt.Errorf("%s: Service.Run answered %s, want %s", r.name(), cacheStatus(out), want)
			}
			b.done(b.checkReply(r, reply{data: out.Bundle, hash: out.Hash}, err))
		}

		rep, err := s.post(b.ctx, r, op, 0)
		b.done(b.checkReply(r, rep, err))

		data, ok := b.timedGet(s.svc.Cache(), op, "op", r)
		if ok {
			b.timedPut(s.svc.Cache(), op, "op", r, data)
		}
		data, coldOK := b.timedGet(cold, op, "op", r)
		err = b.checkRef(r, data)
		if !ok || !coldOK {
			err = fmt.Errorf("%s: not read back from the store", r.name())
		}
		b.done(err)
		b.rec.span("op", 0, start, time.Since(start), spanArgs{Op: op, Job: r.name()})
	}
	s.collect(b.lay, b.rec)
	return nil
}
