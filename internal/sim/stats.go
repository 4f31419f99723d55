package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	name string
	v    uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// FloatAccum is a monotonically accumulating float metric (energy,
// latency-weighted sums). It lives in the same registry as Counters so
// snapshots and window deltas cover it.
type FloatAccum struct {
	name string
	v    float64
}

// Add accumulates x.
func (f *FloatAccum) Add(x float64) { f.v += x }

// Gauge is a point-in-time value (a queue depth, a cache size) that can go
// down as well as up. Window deltas keep a gauge's current value.
type Gauge struct {
	v int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v = v }

// registry is the single shared store behind every Stats view of a run:
// one registry owns every counter, however deep the component that
// registered it sits in the hierarchy.
type registry struct {
	order    []string
	counters map[string]*Counter
	forder   []string
	floats   map[string]*FloatAccum
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Stats is a view onto a run's metric registry. The root view (NewStats)
// sees every counter; Scope derives prefixed child views that register and
// read under "prefix." while still sharing the same registry, so per-core
// or per-component counters stay visible to run-level snapshots.
//
// Concurrency contract: a registry is per-run state, NOT goroutine-safe.
// Every run (cpu.Runner) builds its own registry via NewStats and mutates it
// from the single goroutine executing that run; parallel harnesses
// (experiment.RunPairsCtx) get isolation by never sharing a registry between
// jobs, not by locking. Cross-goroutine readers (e.g. a live debug server)
// must consume immutable Snapshot values published by the run goroutine,
// never the live Stats.
type Stats struct {
	reg    *registry
	prefix string
}

// NewStats returns the root view of a fresh, empty registry.
func NewStats() *Stats {
	return &Stats{reg: &registry{
		counters: make(map[string]*Counter),
		floats:   make(map[string]*FloatAccum),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}}
}

// Scope returns a child view whose registrations and reads are prefixed by
// "name." on the same underlying registry. Scope("l1").Scope("core0") and
// Scope("l1.core0") are equivalent; an empty name returns the view itself.
func (s *Stats) Scope(name string) *Stats {
	if name == "" {
		return s
	}
	return &Stats{reg: s.reg, prefix: s.prefix + name + "."}
}

// Counter returns the counter with the given name under this view's scope,
// creating it on first use.
func (s *Stats) Counter(name string) *Counter {
	full := s.prefix + name
	if c, ok := s.reg.counters[full]; ok {
		return c
	}
	c := &Counter{name: full}
	s.reg.counters[full] = c
	s.reg.order = append(s.reg.order, full)
	return c
}

// Float returns the float accumulator with the given name under this view's
// scope, creating it on first use.
func (s *Stats) Float(name string) *FloatAccum {
	full := s.prefix + name
	if f, ok := s.reg.floats[full]; ok {
		return f
	}
	f := &FloatAccum{name: full}
	s.reg.floats[full] = f
	s.reg.forder = append(s.reg.forder, full)
	return f
}

// Gauge returns the gauge with the given name under this view's scope,
// creating it on first use.
func (s *Stats) Gauge(name string) *Gauge {
	full := s.prefix + name
	if g, ok := s.reg.gauges[full]; ok {
		return g
	}
	g := &Gauge{}
	s.reg.gauges[full] = g
	return g
}

// Histogram returns the latency histogram with the given name under this
// view's scope, creating it on first use.
func (s *Stats) Histogram(name string) *Histogram {
	full := s.prefix + name
	if h, ok := s.reg.hists[full]; ok {
		return h
	}
	h := &Histogram{name: full}
	s.reg.hists[full] = h
	return h
}

// Get returns the value of a counter under this view's scope, or 0 if it
// was never registered.
func (s *Stats) Get(name string) uint64 {
	if c, ok := s.reg.counters[s.prefix+name]; ok {
		return c.v
	}
	return 0
}

// GetFloat returns the value of a float accumulator under this view's
// scope, or 0 if it was never registered.
func (s *Stats) GetFloat(name string) float64 {
	if f, ok := s.reg.floats[s.prefix+name]; ok {
		return f.v
	}
	return 0
}

// Names returns the counter names visible to this view in registration
// order, relative to the view's scope (so Get(name) resolves each of them).
// The root view sees every fully-qualified name.
func (s *Stats) Names() []string {
	out := make([]string, 0, len(s.reg.order))
	for _, name := range s.reg.order {
		if strings.HasPrefix(name, s.prefix) {
			out = append(out, name[len(s.prefix):])
		}
	}
	return out
}

// FloatNames returns the float-accumulator names visible to this view in
// registration order, relative to the view's scope.
func (s *Stats) FloatNames() []string {
	out := make([]string, 0, len(s.reg.forder))
	for _, name := range s.reg.forder {
		if strings.HasPrefix(name, s.prefix) {
			out = append(out, name[len(s.prefix):])
		}
	}
	return out
}

// String renders the visible counters as "name=value" lines in registration
// order, followed by any float accumulators.
func (s *Stats) String() string {
	var b strings.Builder
	for _, name := range s.Names() {
		fmt.Fprintf(&b, "%s=%d\n", name, s.Get(name))
	}
	for _, name := range s.FloatNames() {
		fmt.Fprintf(&b, "%s=%g\n", name, s.GetFloat(name))
	}
	return b.String()
}

// Snapshot is a point-in-time copy of every metric visible to one view.
// Snapshots are value copies of the registry's numbers (including full
// histogram bucket arrays); they do not keep the registry alive beyond the
// maps they hold. Unlike the live Stats, a Snapshot is immutable after
// capture and therefore safe to hand to other goroutines — this is the only
// supported way to expose run metrics outside the run's own goroutine.
type Snapshot struct {
	counters map[string]uint64
	floats   map[string]float64
	gauges   map[string]int64
	hists    map[string]Histogram
}

// Snapshot captures the current value of every counter, accumulator and
// histogram visible to this view. It must be called from the run's own
// goroutine (the registry is not goroutine-safe); the returned value can
// then be shared freely.
func (s *Stats) Snapshot() Snapshot {
	sn := Snapshot{
		counters: make(map[string]uint64, len(s.reg.counters)),
		floats:   make(map[string]float64, len(s.reg.floats)),
		gauges:   make(map[string]int64, len(s.reg.gauges)),
		hists:    make(map[string]Histogram, len(s.reg.hists)),
	}
	for name, c := range s.reg.counters {
		if strings.HasPrefix(name, s.prefix) {
			sn.counters[name] = c.v
		}
	}
	for name, f := range s.reg.floats {
		if strings.HasPrefix(name, s.prefix) {
			sn.floats[name] = f.v
		}
	}
	for name, g := range s.reg.gauges {
		if strings.HasPrefix(name, s.prefix) {
			sn.gauges[name] = g.v
		}
	}
	for name, h := range s.reg.hists {
		if strings.HasPrefix(name, s.prefix) {
			sn.hists[name] = *h
		}
	}
	return sn
}

// Delta returns the per-metric change since snap, as a new Snapshot whose
// values are current-minus-snapshotted. Counters registered after snap was
// taken delta against zero. Gauges are not cumulative, so the delta keeps
// their current values. Like Snapshot, Delta reads the live registry
// and must run on the run's own goroutine.
func (s *Stats) Delta(snap Snapshot) Snapshot {
	d := Snapshot{
		counters: make(map[string]uint64, len(s.reg.counters)),
		floats:   make(map[string]float64, len(s.reg.floats)),
		gauges:   make(map[string]int64, len(s.reg.gauges)),
		hists:    make(map[string]Histogram, len(s.reg.hists)),
	}
	for name, c := range s.reg.counters {
		if strings.HasPrefix(name, s.prefix) {
			d.counters[name] = c.v - snap.counters[name]
		}
	}
	for name, f := range s.reg.floats {
		if strings.HasPrefix(name, s.prefix) {
			d.floats[name] = f.v - snap.floats[name]
		}
	}
	for name, g := range s.reg.gauges {
		if strings.HasPrefix(name, s.prefix) {
			d.gauges[name] = g.v
		}
	}
	for name, h := range s.reg.hists {
		if strings.HasPrefix(name, s.prefix) {
			d.hists[name] = h.delta(snap.hists[name])
		}
	}
	return d
}

// Get returns the snapshotted value of a fully-qualified counter name.
func (sn Snapshot) Get(name string) uint64 { return sn.counters[name] }

// GetFloat returns the snapshotted value of a fully-qualified accumulator
// name.
func (sn Snapshot) GetFloat(name string) float64 { return sn.floats[name] }

// GetGauge returns the snapshotted value of a fully-qualified gauge name.
func (sn Snapshot) GetGauge(name string) int64 { return sn.gauges[name] }

// DeltaOf returns how much counter c has advanced since the snapshot was
// taken. Counters registered after the snapshot delta against zero.
func (sn Snapshot) DeltaOf(c *Counter) uint64 { return c.v - sn.counters[c.name] }

// DeltaOfFloat returns how much accumulator f has advanced since the
// snapshot was taken.
func (sn Snapshot) DeltaOfFloat(f *FloatAccum) float64 { return f.v - sn.floats[f.name] }

// DeltaOfHist returns the bucket-wise advance of histogram h since the
// snapshot was taken, as a standalone Histogram whose summaries describe
// just that window. Histograms registered after the snapshot delta against
// an empty histogram.
func (sn Snapshot) DeltaOfHist(h *Histogram) Histogram { return h.delta(sn.hists[h.name]) }

// Hist returns the snapshotted copy of a fully-qualified histogram name.
func (sn Snapshot) Hist(name string) (Histogram, bool) {
	h, ok := sn.hists[name]
	return h, ok
}

// CounterNames returns every counter name in the snapshot, sorted. Snapshots
// drop the registry's registration order, so sorted names are the snapshot's
// deterministic iteration order — the one exporters rely on.
func (sn Snapshot) CounterNames() []string { return sortedKeys(sn.counters) }

// FloatNames returns every float-accumulator name in the snapshot, sorted.
func (sn Snapshot) FloatNames() []string { return sortedKeys(sn.floats) }

// GaugeNames returns every gauge name in the snapshot, sorted.
func (sn Snapshot) GaugeNames() []string { return sortedKeys(sn.gauges) }

// HistNames returns every histogram name in the snapshot, sorted.
func (sn Snapshot) HistNames() []string { return sortedKeys(sn.hists) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Ratio returns num/den as a float, or 0 when den is zero.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Sample accumulates float observations and reports distribution summaries.
// It keeps every observation; the workloads in this repository produce at
// most a few hundred thousand samples per run.
type Sample struct {
	xs     []float64
	sorted bool
}

// Observe records one observation.
func (s *Sample) Observe(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Merge folds every observation of o into s. Percentile summaries sort the
// observations, so the merged summaries do not depend on merge order.
func (s *Sample) Merge(o *Sample) {
	if o.N() == 0 {
		return
	}
	s.xs = append(s.xs, o.xs...)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank interpolation, or 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	pos := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Box summarises the sample as the 5/25/50/75/95 percentiles, the box-plot
// shape used by the paper's Fig. 4.
type Box struct {
	P5, P25, P50, P75, P95 float64
	N                      int
}

// Box returns the five-number summary of the sample.
func (s *Sample) Box() Box {
	return Box{
		P5:  s.Percentile(5),
		P25: s.Percentile(25),
		P50: s.Percentile(50),
		P75: s.Percentile(75),
		P95: s.Percentile(95),
		N:   len(s.xs),
	}
}

// GeoMean returns the geometric mean of xs, ignoring non-positive entries.
// It is the aggregation the paper uses for cross-workload speedups.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
