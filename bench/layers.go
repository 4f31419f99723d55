package main

import (
	"slices"
	"strings"
	"sync"
	"time"

	"baryon/bench/doc"
	"baryon/internal/cpu"
	"baryon/internal/sim"
)

// layers accumulates a traced run's per-layer numbers. The trace and
// controller layers are timed per call and summed into their run, the
// others per call. Untraced runs have none and call only decoded.
type layers struct {
	mu sync.Mutex

	traceCalls, ctrlCalls, ctrlWrites int64
	traceBusy, ctrlBusy, runBusy      time.Duration
	constructMs, runMs, selfMs        []float64
	// tracedMs and untracedMs time the two runs of each job a traced run
	// makes, for the tracing overhead.
	tracedMs, untracedMs []float64

	newUs, marshalUs, decodeUs, bundleBytes []float64
	getMemUs, getDiskUs, putMs              []float64
	svcHitUs, svcMissMs                     []float64
	handlerUs, transportUs                  []float64

	submitted, sims, collapsed, rejected uint64

	// counts sums simulated statistics over distinct jobs (counted holds
	// their spec hashes), so they are exact for a given seed.
	counts  map[string]uint64
	counted map[string]bool

	allocBytes uint64
	gcs        uint32
}

func newLayers() *layers {
	return &layers{counts: map[string]uint64{}, counted: map[string]bool{}}
}

func (l *layers) add(dst *[]float64, v float64) {
	l.mu.Lock()
	*dst = append(*dst, v)
	l.mu.Unlock()
}

// decoded records one strict report.Decode call; on nil it does nothing.
func (l *layers) decoded(d time.Duration) {
	if l != nil {
		l.add(&l.decodeUs, us(d))
	}
}

// runClock is one traced run's time inside the trace source and the
// controller, filled by the wrappers on the run's goroutine.
type runClock struct {
	traceCalls, ctrlCalls, ctrlWrites int64
	traceBusy, ctrlBusy               time.Duration
}

// run records one traced run: its construction and RunCtx times, the
// wrapped layers' busy time inside RunCtx, and the report calls after it.
func (l *layers) run(c *runClock, construct, run, newB, marshal time.Duration, size int) {
	self := run - c.traceBusy - c.ctrlBusy
	l.mu.Lock()
	defer l.mu.Unlock()
	l.traceCalls += c.traceCalls
	l.ctrlCalls += c.ctrlCalls
	l.ctrlWrites += c.ctrlWrites
	l.traceBusy += c.traceBusy
	l.ctrlBusy += c.ctrlBusy
	l.runBusy += run
	l.constructMs = append(l.constructMs, ms(construct))
	l.runMs = append(l.runMs, ms(run))
	l.selfMs = append(l.selfMs, ms(self))
	l.newUs = append(l.newUs, us(newB))
	l.marshalUs = append(l.marshalUs, us(marshal))
	l.bundleBytes = append(l.bundleBytes, float64(size))
}

// pair records a job's traced and untraced run times.
func (l *layers) pair(traced, untraced time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tracedMs = append(l.tracedMs, ms(traced))
	l.untracedMs = append(l.untracedMs, ms(untraced))
}

// serviceRun records one direct Service.Run call by how it was served.
func (l *layers) serviceRun(cache string, d time.Duration) {
	switch cache {
	case "hit":
		l.add(&l.svcHitUs, us(d))
	case "miss":
		l.add(&l.svcMissMs, ms(d))
	}
}

// serviceCounts adds a service's job counters.
func (l *layers) serviceCounts(snap sim.Snapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.submitted += snap.Get("jobs.submitted")
	l.sims += snap.Get("jobs.simulations")
	l.collapsed += snap.Get("jobs.collapsed")
	l.rejected += snap.Get("admission.rejected")
}

// runtime records the Go runtime's allocation and GC deltas over the
// measured loop.
func (l *layers) runtime(allocBytes uint64, gcs uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.allocBytes, l.gcs = allocBytes, gcs
}

// simLayerMetrics and serviceLayerMetrics name the per-layer metrics of the
// simulator's layers and of the service's. A sim workload's loop crosses
// only the first group and a serve workload's loop only the second, so a
// traced run measures the other group outside its loop: the sim workloads
// in serviceSidePass, the serve workloads in their traced recheck of eight
// served bundles. The detail line lists them as outside_loop_metrics.
var (
	simLayerMetrics = []string{
		"trace.calls", "trace.ns_per_call", "trace.share",
		"cpu.construct_ms", "cpu.run_ms", "cpu_cache.self_ms", "cpu_cache.share",
		"ctrl.calls", "ctrl.write_share", "ctrl.ns_per_call", "ctrl.share",
		"report.new_us", "report.marshal_us", "report.bundle_bytes",
		"cache.llc_misses", "cache.llc_writebacks", "core.stage_hits", "core.commits",
		"compress.compressed_writebacks", "compress.decompressions",
		"mem.fast_bytes", "mem.slow_bytes", "trace_overhead",
	}
	serviceLayerMetrics = []string{
		"store.get_mem_us_p50", "store.get_disk_us_p50", "store.put_ms_p50", "store.mem_hit_ratio",
		"service.hit_us_p50", "service.miss_ms_p50", "service.sims_per_req",
		"service.collapsed_ratio", "service.rejected",
		"http.handler_us_p50", "http.transport_us_p50",
	}
)

// outsideLoopMetrics names the per-layer metrics a traced run of w
// measures outside its loop.
func outsideLoopMetrics(w workload) []string {
	switch {
	case w.sim != nil:
		return serviceLayerMetrics
	case w.serve.freshEvery == 0:
		// Its misses are the set-up's (runServe).
		return append(slices.Clone(simLayerMetrics), "service.miss_ms_p50")
	}
	return simLayerMetrics
}

// simCounts maps per-layer metric names to the registry counters they sum.
var simCounts = map[string]string{
	"cache.llc_misses":               "hierarchy.llcMisses",
	"cache.llc_writebacks":           "hierarchy.llcWritebacks",
	"core.stage_hits":                "baryon.stage.hits",
	"core.commits":                   "baryon.commits",
	"compress.compressed_writebacks": "baryon.compressedWritebacks",
}

// count adds a run's measurement-window statistics, once per spec hash.
func (l *layers) count(hash string, res cpu.Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.counted[hash] {
		return
	}
	l.counted[hash] = true
	d := res.Stats.Delta(res.MeasureStart)
	for metric, counter := range simCounts {
		l.counts[metric] += d.Get(counter)
	}
	for _, name := range d.CounterNames() {
		if strings.HasSuffix(name, ".decompressions") {
			l.counts["compress.decompressions"] += d.Get(name)
		}
	}
	l.counts["mem.fast_bytes"] += res.FastBytes
	l.counts["mem.slow_bytes"] += res.SlowBytes
}

// metrics computes the per-layer metrics; ops is the measured loop's op
// count.
func (l *layers) metrics(ops int) (map[string]doc.Metric, map[string]int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := map[string]doc.Metric{}
	samples := map[string]int{}
	put := func(name, unit string, v float64) { m[name] = doc.Metric{Value: v, Unit: unit} }
	timing := func(name, unit string, v []float64) {
		put(name, unit, median(v))
		samples[name] = len(v)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	put("trace.calls", "count", float64(l.traceCalls))
	put("trace.ns_per_call", "ns", ratio(float64(l.traceBusy), float64(l.traceCalls)))
	put("trace.share", "ratio", ratio(float64(l.traceBusy), float64(l.runBusy)))
	timing("cpu.construct_ms", "ms", l.constructMs)
	timing("cpu.run_ms", "ms", l.runMs)
	timing("cpu_cache.self_ms", "ms", l.selfMs)
	put("cpu_cache.share", "ratio", ratio(float64(l.runBusy-l.traceBusy-l.ctrlBusy), float64(l.runBusy)))
	put("ctrl.calls", "count", float64(l.ctrlCalls))
	put("ctrl.write_share", "ratio", ratio(float64(l.ctrlWrites), float64(l.ctrlCalls)))
	put("ctrl.ns_per_call", "ns", ratio(float64(l.ctrlBusy), float64(l.ctrlCalls)))
	put("ctrl.share", "ratio", ratio(float64(l.ctrlBusy), float64(l.runBusy)))

	timing("report.new_us", "us", l.newUs)
	timing("report.marshal_us", "us", l.marshalUs)
	timing("report.decode_us", "us", l.decodeUs)
	put("report.bundle_bytes", "bytes", median(l.bundleBytes))

	timing("store.get_mem_us_p50", "us", l.getMemUs)
	timing("store.get_disk_us_p50", "us", l.getDiskUs)
	timing("store.put_ms_p50", "ms", l.putMs)
	put("store.mem_hit_ratio", "ratio", ratio(float64(len(l.getMemUs)), float64(len(l.getMemUs)+len(l.getDiskUs))))

	timing("service.hit_us_p50", "us", l.svcHitUs)
	timing("service.miss_ms_p50", "ms", l.svcMissMs)
	put("service.sims_per_req", "ratio", ratio(float64(l.sims), float64(l.submitted)))
	put("service.collapsed_ratio", "ratio", ratio(float64(l.collapsed), float64(l.submitted)))
	put("service.rejected", "count", float64(l.rejected))

	timing("http.handler_us_p50", "us", l.handlerUs)
	timing("http.transport_us_p50", "us", l.transportUs)

	put("go.alloc_kb_per_op", "KB/op", ratio(float64(l.allocBytes)/1024, float64(ops)))
	put("go.gc_per_op", "1/op", ratio(float64(l.gcs), float64(ops)))

	for metric := range simCounts {
		put(metric, "count", float64(l.counts[metric]))
	}
	put("compress.decompressions", "count", float64(l.counts["compress.decompressions"]))
	put("mem.fast_bytes", "bytes", float64(l.counts["mem.fast_bytes"]))
	put("mem.slow_bytes", "bytes", float64(l.counts["mem.slow_bytes"]))

	put("trace_overhead", "ratio", ratio(median(l.tracedMs), median(l.untracedMs))-1)
	samples["trace_overhead"] = len(l.tracedMs)
	return m, samples
}
