package sim

import (
	"math"
	"testing"
)

// TestHistBucketExactBelowLinearMax pins the contract that small values get
// one exact bucket each: every latency under 32 cycles survives the
// histogram without quantisation.
func TestHistBucketExactBelowLinearMax(t *testing.T) {
	for v := uint64(0); v < histLinearMax; v++ {
		if got := histBucket(v); got != int(v) {
			t.Fatalf("histBucket(%d) = %d, want %d", v, got, v)
		}
		lo, hi := histBucketBounds(int(v))
		if lo != v || hi != v+1 {
			t.Fatalf("histBucketBounds(%d) = [%d,%d), want [%d,%d)", v, lo, hi, v, v+1)
		}
	}
}

// TestHistBucketBoundsRoundTrip checks bucket geometry consistency: every
// bucket's bounds map back to that bucket, bounds tile the value space with
// no gaps, and relative width stays within the documented 12.5%.
func TestHistBucketBoundsRoundTrip(t *testing.T) {
	var prevHi uint64
	for i := 0; i < HistBuckets; i++ {
		lo, hi := histBucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ended at %d (gap/overlap)", i, lo, prevHi)
		}
		if histBucket(lo) != i {
			t.Fatalf("histBucket(lo=%d) = %d, want bucket %d", lo, histBucket(lo), i)
		}
		if histBucket(hi-1) != i {
			t.Fatalf("histBucket(hi-1=%d) = %d, want bucket %d", hi-1, histBucket(hi-1), i)
		}
		if lo >= histLinearMax {
			if rel := float64(hi-lo) / float64(lo); rel > 1.0/histSubBuckets+1e-12 {
				t.Fatalf("bucket %d [%d,%d) relative width %.4f > %.4f", i, lo, hi, rel, 1.0/histSubBuckets)
			}
		}
		prevHi = hi
	}
	if prevHi != 1<<histMaxOctave {
		t.Fatalf("buckets tile up to %d, want %d", prevHi, uint64(1)<<histMaxOctave)
	}
}

// TestHistBucketClamp checks that values at and beyond 2^histMaxOctave fold
// into the final bucket instead of indexing out of range.
func TestHistBucketClamp(t *testing.T) {
	for _, v := range []uint64{1<<histMaxOctave - 1, 1 << histMaxOctave, 1<<histMaxOctave + 1,
		1 << 50, math.MaxUint64} {
		got := histBucket(v)
		if got < 0 || got >= HistBuckets {
			t.Fatalf("histBucket(%d) = %d out of range", v, got)
		}
		if v >= 1<<histMaxOctave && got != HistBuckets-1 {
			t.Fatalf("histBucket(%d) = %d, want clamp bucket %d", v, got, HistBuckets-1)
		}
	}
	var h Histogram
	h.Observe(math.MaxUint64)
	if h.max != math.MaxUint64 || h.Count() != 1 {
		t.Fatalf("after Observe(MaxUint64): max=%d count=%d", h.max, h.Count())
	}
	if got := h.Percentile(100); got != float64(math.MaxUint64) {
		t.Fatalf("Percentile(100) = %g, want exact max", got)
	}
}

// TestHistogramEmpty pins the zero-value behaviour the summary paths rely on.
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.Percentile(100) != 0 {
		t.Fatalf("empty histogram not all-zero: mean=%g p50=%g p100=%g",
			h.Mean(), h.Percentile(50), h.Percentile(100))
	}
	s := h.Summary()
	if s.Count != 0 || s.Max != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

// histDistributions are the known shapes the percentile-accuracy test draws:
// uniform (flat), geometric (heavy head, thin tail — the shape cache-hit
// latencies take), constant (degenerate), and bimodal (fast-hit vs slow-path
// split, the shape Baryon's stage hits and slow-path reads produce).
var histDistributions = []struct {
	name string
	gen  func(r *RNG) uint64
}{
	{"uniform", func(r *RNG) uint64 { return r.Uint64n(10000) }},
	{"geometric", func(r *RNG) uint64 {
		v := uint64(0)
		for r.Bool(0.95) && v < 60 {
			v++
		}
		return v * v * 7 // spread across octaves
	}},
	{"constant", func(r *RNG) uint64 { return 199 }},
	{"bimodal", func(r *RNG) uint64 {
		if r.Bool(0.9) {
			return 20 + r.Uint64n(15) // fast hit
		}
		return 4000 + r.Uint64n(2000) // slow path
	}},
}

// TestHistogramPercentilesVsExact draws seeded values from known
// distributions into both a Histogram and an exact Sample reference, then
// checks every percentile estimate stays within the documented 12.5%
// relative error (plus one-value slack for the interpolation convention
// difference between the two estimators).
func TestHistogramPercentilesVsExact(t *testing.T) {
	for _, dist := range histDistributions {
		t.Run(dist.name, func(t *testing.T) {
			r := NewRNG(42)
			var h Histogram
			var ref Sample
			for i := 0; i < 20000; i++ {
				v := dist.gen(r)
				h.Observe(v)
				ref.Observe(float64(v))
			}
			if h.Count() != uint64(ref.N()) {
				t.Fatalf("count mismatch: hist %d, ref %d", h.Count(), ref.N())
			}
			if gotMean, want := h.Mean(), ref.Mean(); math.Abs(gotMean-want) > 0.5+1e-9 {
				t.Fatalf("mean: hist %.3f, exact %.3f", gotMean, want)
			}
			for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 99.9, 100} {
				got := h.Percentile(p)
				want := ref.Percentile(p)
				tol := want/histSubBuckets + 1.5
				if math.Abs(got-want) > tol {
					t.Errorf("p%.1f: hist %.1f, exact %.1f (tolerance %.1f)", p, got, want, tol)
				}
			}
			if h.Percentile(100) != float64(h.max) {
				t.Errorf("p100 %.1f != exact max %d", h.Percentile(100), h.max)
			}
		})
	}
}

// TestHistogramPercentileMonotonic checks estimates never decrease as p
// grows, across all the test distributions.
func TestHistogramPercentileMonotonic(t *testing.T) {
	r := NewRNG(7)
	for _, dist := range histDistributions {
		var h Histogram
		for i := 0; i < 5000; i++ {
			h.Observe(dist.gen(r))
		}
		prev := -1.0
		for p := 0.0; p <= 100; p += 0.5 {
			v := h.Percentile(p)
			if v < prev {
				t.Fatalf("%s: Percentile(%g) = %.2f < Percentile(%g) = %.2f",
					dist.name, p, v, p-0.5, prev)
			}
			prev = v
		}
	}
}

// randHist builds a histogram of n seeded draws mixing all distributions.
func randHist(seed uint64, n int) *Histogram {
	r := NewRNG(seed)
	h := &Histogram{}
	for i := 0; i < n; i++ {
		h.Observe(histDistributions[r.Intn(len(histDistributions))].gen(r))
	}
	return h
}

// TestHistogramMergeProperties checks Merge is commutative and associative
// bucket-for-bucket, the property window deltas and parallel reduction rely
// on. Buckets are fixed arrays, so struct equality compares every bucket.
func TestHistogramMergeProperties(t *testing.T) {
	a, b, c := randHist(1, 3000), randHist(2, 4000), randHist(3, 5000)

	ab := *a
	ab.Merge(b)
	ba := *b
	ba.Merge(a)
	ba.name = ab.name
	if ab != ba {
		t.Fatal("Merge is not commutative")
	}

	abc1 := ab // (a+b)+c
	abc1.Merge(c)
	bc := *b
	bc.Merge(c)
	abc2 := *a // a+(b+c)
	abc2.Merge(&bc)
	if abc1 != abc2 {
		t.Fatal("Merge is not associative")
	}
	if abc1.Count() != a.Count()+b.Count()+c.Count() {
		t.Fatalf("merged count %d, want %d", abc1.Count(), a.Count()+b.Count()+c.Count())
	}
	if abc1.Sum() != a.Sum()+b.Sum()+c.Sum() {
		t.Fatalf("merged sum %d, want %d", abc1.Sum(), a.Sum()+b.Sum()+c.Sum())
	}

	// Merging an empty histogram is the identity.
	var empty Histogram
	id := *a
	id.Merge(&empty)
	if id != *a {
		t.Fatal("merging an empty histogram changed the receiver")
	}
}

// TestHistogramDeltaWindow checks snapshot deltas: the delta of a window
// holds exactly the window's observations, and its max is a bucket-derived
// upper bound never below the true window max nor above the lifetime max.
func TestHistogramDeltaWindow(t *testing.T) {
	st := NewStats()
	h := st.Histogram("lat")
	r := NewRNG(99)
	for i := 0; i < 1000; i++ {
		h.Observe(r.Uint64n(500))
	}
	snap := st.Snapshot()
	var trueMax uint64
	var winSum uint64
	for i := 0; i < 2000; i++ {
		v := 1000 + r.Uint64n(8000)
		if v > trueMax {
			trueMax = v
		}
		winSum += v
		h.Observe(v)
	}
	d := snap.DeltaOfHist(h)
	if d.Count() != 2000 || d.Sum() != winSum {
		t.Fatalf("delta count=%d sum=%d, want 2000/%d", d.Count(), d.Sum(), winSum)
	}
	if d.max < trueMax {
		t.Fatalf("delta max %d below true window max %d", d.max, trueMax)
	}
	if d.max > h.max {
		t.Fatalf("delta max %d above lifetime max %d", d.max, h.max)
	}
	if rel := float64(d.max-trueMax) / float64(trueMax); rel > 1.0/histSubBuckets {
		t.Fatalf("delta max %d overshoots true max %d by %.3f", d.max, trueMax, rel)
	}
	// A delta over an idle window is empty.
	idle := st.Snapshot().DeltaOfHist(h)
	if idle.Count() != 0 || idle.max != 0 {
		t.Fatalf("idle delta not empty: count=%d max=%d", idle.Count(), idle.max)
	}
}

// TestSnapshotKeepsHistogramExactly checks that a snapshot, the delta
// against nothing, copies a histogram whole: count, sum, buckets and the
// exact max, also when the max clamps into the last bucket.
func TestSnapshotKeepsHistogramExactly(t *testing.T) {
	for _, top := range []uint64{0, 1000, 1<<histMaxOctave + 12345} {
		st := NewStats()
		h := st.Histogram("lat")
		for _, v := range []uint64{3, 77, top} {
			h.Observe(v)
		}
		if got, _ := st.Snapshot().Hist("lat"); got != *h {
			t.Errorf("max %d: snapshot %+v, want %+v", top, got, *h)
		}
	}
}

// TestStatsHistogramRegistry checks registry integration: name scoping,
// idempotent lookup, enumeration through a snapshot, and Reset.
func TestStatsHistogramRegistry(t *testing.T) {
	st := NewStats()
	sc := st.Scope("dev")
	h1 := sc.Histogram("lat.queue")
	h2 := sc.Histogram("lat.queue")
	if h1 != h2 {
		t.Fatal("Histogram lookup not idempotent")
	}
	if h1.name != "dev.lat.queue" {
		t.Fatalf("scoped name %q, want dev.lat.queue", h1.name)
	}
	st.Histogram("alat")
	names := st.Snapshot().HistNames()
	if len(names) != 2 || names[0] != "alat" || names[1] != "dev.lat.queue" {
		t.Fatalf("Snapshot().HistNames() = %v, want both names sorted", names)
	}
	h1.Observe(10)
	st.Reset()
	if h1.Count() != 0 || h1.max != 0 || h1.Percentile(50) != 0 {
		t.Fatalf("Reset left data: count=%d max=%d", h1.Count(), h1.max)
	}
}

// Merge folds every bucket of o into h. Merging is associative and
// commutative bucket-for-bucket, so summaries of merged histograms do not
// depend on merge order.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}
