package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"baryon/bench/doc"
	"baryon/internal/report"
)

// setupReps is how often a run sets its workload up; setup_s is the median.
// The state of the last repetition is the one measured.
const setupReps = 3

// maxFailures bounds the failure messages kept for the detail line.
const maxFailures = 20

// bench is one run of one workload.
type bench struct {
	ctx     context.Context
	w       workload
	seed    uint64
	seconds float64
	traced  bool
	// reps is how often the workload is set up: setupReps, or once in a
	// traced run, whose set-up time is not reported.
	reps int
	// maxOps, when positive, ends the measured loop after that many ops
	// instead of at the deadline (the smoke tests use 1).
	maxOps int
	log    io.Writer
	// rec and lay collect spans and per-layer numbers; both are nil in an
	// untraced run.
	rec *recorder
	lay *layers

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	ops       int
	// lats holds the measured ops' latencies.
	lats []opLat
	// setups holds each set-up repetition's time in seconds, as the clock
	// read it and divided by the host factor of the samples taken after it.
	setups, setupsScaled []float64
	// wall and wallScaled are the measured loop's seconds less the kernel
	// samples in it, as the clock read them and scaled segment by segment.
	wall, wallScaled float64
	// host times the calibration kernel in untraced runs.
	host hostClock
	// refs holds the first bundle seen for each spec hash; every later
	// bundle with that hash must equal it byte for byte.
	refs   map[string][]byte
	nextOp int
}

func newBench(ctx context.Context, w workload, seed uint64, seconds float64, traced bool, log io.Writer) *bench {
	b := &bench{ctx: ctx, w: w, seed: seed, seconds: seconds, traced: traced, reps: setupReps, log: log, refs: map[string][]byte{}}
	if traced {
		b.reps = 1
		b.rec = newRecorder()
		b.lay = newLayers()
	}
	return b
}

// run sets the workload up, measures it and returns its result and detail.
func (b *bench) run() (doc.Result, doc.Detail, error) {
	var err error
	if b.w.sim != nil {
		err = b.runSim()
	} else {
		err = b.runServe()
	}
	if err == nil {
		err = b.ctx.Err()
	}
	if err != nil {
		return doc.Result{}, doc.Detail{}, err
	}
	res := doc.Result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	detail := doc.Detail{
		Workload: b.w.name, Seed: b.seed, Trace: b.traced, Clients: 1, Host: hostShape(),
		Ops: b.ops, WallS: b.wall, SetupS: b.setups, Failures: b.failures,
	}
	if b.traced {
		res.Metrics, detail.Samples = b.lay.metrics(b.ops)
		detail.OutsideLoop = outsideLoopMetrics(b.w)
	} else {
		res.Metrics, detail.WallClock = b.endToEnd()
		detail.HostFactor = b.host.factor(0, b.host.segment())
		detail.Samples = map[string]int{"setup_s": len(b.setups), "ops_per_s": b.ops,
			"op_ms_p50": b.ops, "op_ms_p90": b.ops, "host_factor": b.host.segment()}
	}
	return res, detail, nil
}

// endToEnd computes the metrics a user of the simulator or the service
// sees, each time divided by the host factor around it, and the same
// metrics as the wall clock read them.
func (b *bench) endToEnd() (map[string]doc.Metric, map[string]float64) {
	wall := map[string]float64{
		"setup_s":   median(b.setups),
		"ops_per_s": float64(b.ops) / b.wall,
		"op_ms_p50": b.opMs(0.50, false),
		"op_ms_p90": b.opMs(0.90, false),
	}
	m := map[string]doc.Metric{
		"setup_s":     {Value: median(b.setupsScaled), Unit: "s"},
		"peak_rss_mb": {Value: peakRSSMB(), Unit: "MB"},
		"ops_per_s":   {Value: float64(b.ops) / b.wallScaled, Unit: "1/s"},
		"op_ms_p50":   {Value: b.opMs(0.50, true), Unit: "ms"},
		"op_ms_p90":   {Value: b.opMs(0.90, true), Unit: "ms"},
	}
	return m, wall
}

// measure runs loop, the measured phase, until the deadline and times it.
func (b *bench) measure(loop func(deadline time.Time)) {
	from := b.host.segment()
	start := time.Now()
	loop(start.Add(time.Duration(b.seconds * float64(time.Second))))
	b.wall, b.wallScaled = b.host.span(from, start, time.Now())
}

// setupDone records one set-up repetition's time and, in an untraced run,
// samples the host's speed after it to scale that time.
func (b *bench) setupDone(t0 time.Time) {
	d := time.Since(t0).Seconds()
	b.setups = append(b.setups, d)
	if b.traced {
		return
	}
	first := b.host.segment()
	for i := 0; i < calSamples; i++ {
		b.host.sample()
	}
	b.setupsScaled = append(b.setupsScaled, d/b.host.factor(first, first+calSamples))
}

// tick gives the calibration kernel its turn between two ops of an
// untraced run.
func (b *bench) tick() {
	if !b.traced {
		b.host.tick()
	}
}

// opLat is one measured op: its latency group (one per design and
// workload of a sim workload, a single one on the serve workloads), the
// host clock's segment it ran in, and its latency.
type opLat struct {
	group, seg int
	ms         float64
}

// opMs returns the q-quantile of op latency, taken per group and averaged
// over the groups; scaled divides each op's latency by its segment's host
// factor first. The designs and workloads of a sim workload take different
// times, so a quantile of all runs together would fall on the edge between
// two groups' clusters and jump as the op count shifts by one. A serve
// workload has one group, so this is its plain quantile.
func (b *bench) opMs(q float64, scaled bool) float64 {
	var groups [][]float64
	for _, o := range b.lats {
		for len(groups) <= o.group {
			groups = append(groups, nil)
		}
		v := o.ms
		if scaled {
			v /= b.host.segFactor(o.seg)
		}
		groups[o.group] = append(groups[o.group], v)
	}
	var sum float64
	var n int
	for _, v := range groups {
		if len(v) > 0 {
			sum += percentile(v, q)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// more reports whether the measured loop should start op i.
func (b *bench) more(i int, deadline time.Time) bool {
	if b.ctx.Err() != nil {
		return false
	}
	if b.maxOps > 0 {
		return i < b.maxOps
	}
	return time.Now().Before(deadline)
}

// opID hands out span ids; ops of the measured loop and of the checks
// after it share one sequence.
func (b *bench) opID() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextOp++
	return b.nextOp
}

// done counts one checked unit of work and its failure, if any.
func (b *bench) done(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < maxFailures {
			b.failures = append(b.failures, err.Error())
		}
	}
}

// op counts one measured operation of the given latency group (0 on the
// serve workloads).
func (b *bench) op(group int, lat time.Duration, err error) {
	b.mu.Lock()
	b.lats = append(b.lats, opLat{group: group, seg: b.host.segment(), ms: ms(lat)})
	b.ops++
	b.mu.Unlock()
	b.done(err)
}

// checkRef checks a bundle against the first one seen for its spec hash.
// The first one must pass report's strict decoder and carry the expected
// hash; every later one must equal it byte for byte.
func (b *bench) checkRef(r resolved, data []byte) error {
	b.mu.Lock()
	ref, seen := b.refs[r.hash]
	b.mu.Unlock()
	if !seen {
		t := time.Now()
		bd, err := report.Decode(data)
		b.lay.decoded(time.Since(t))
		if err != nil {
			return fmt.Errorf("%s: bundle fails strict decoding: %w", r.name(), err)
		}
		if bd.SpecHash != r.hash {
			return fmt.Errorf("%s: bundle carries spec hash %s, want %s", r.name(), bd.SpecHash, r.hash)
		}
		b.mu.Lock()
		ref, seen = b.refs[r.hash]
		if !seen {
			b.refs[r.hash] = data
		}
		b.mu.Unlock()
		if !seen {
			return nil
		}
	}
	if !bytes.Equal(ref, data) {
		return fmt.Errorf("%s: bundle differs from the first one with spec hash %s", r.name(), r.hash)
	}
	return nil
}

// sample picks n items spread evenly over list, in order.
func sample(list []resolved, n int) []resolved {
	if len(list) <= n {
		return list
	}
	out := make([]resolved, n)
	for i := range out {
		out[i] = list[i*len(list)/n]
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// percentile returns the q-quantile of v by nearest rank, 0 for no values.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// memStats reads the Go runtime's allocation and GC counters.
func memStats() (allocBytes uint64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.NumGC
}
