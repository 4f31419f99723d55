package sim

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Fatal("different seeds too similar")
	}
}

func TestRNGUniformity(t *testing.T) {
	rng := NewRNG(7)
	buckets := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		buckets[rng.Intn(10)]++
	}
	for i, b := range buckets {
		if b < n/10*8/10 || b > n/10*12/10 {
			t.Fatalf("bucket %d has %d of %d (non-uniform)", i, b, n)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	rng := NewRNG(9)
	f := func(_ uint8) bool {
		x := rng.Float64()
		return x >= 0 && x < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	rng := NewRNG(11)
	z := NewZipf(rng, 1000, 0.99, false)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must be the hottest by far, and the head must dominate.
	if counts[0] < counts[500]*10 {
		t.Fatalf("rank 0 (%d) not much hotter than rank 500 (%d)", counts[0], counts[500])
	}
	head := 0
	for i := 0; i < 100; i++ {
		head += counts[i]
	}
	if float64(head)/n < 0.5 {
		t.Fatalf("top 10%% of items got only %.2f of accesses", float64(head)/n)
	}
}

func TestZipfScrambleSpreads(t *testing.T) {
	rng := NewRNG(12)
	z := NewZipf(rng, 1<<20, 0.99, true)
	low := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if z.Next() < 1<<10 {
			low++
		}
	}
	// With scrambling, the hot ranks land anywhere, so the first 0.1% of
	// the space should not receive a large share.
	if float64(low)/n > 0.05 {
		t.Fatalf("scrambled zipf concentrated at low ids: %d/%d", low, n)
	}
}

func TestZipfDegenerateThetaClamped(t *testing.T) {
	rng := NewRNG(13)
	z := NewZipf(rng, 1000, 1.0, false) // clamped internally to < 1
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		seen[z.Next()] = true
	}
	if len(seen) < 50 {
		t.Fatalf("theta clamp failed: only %d distinct values", len(seen))
	}
}

func TestStatsCounters(t *testing.T) {
	s := NewStats()
	c := s.Counter("a")
	c.Inc()
	c.Add(4)
	if s.Get("a") != 5 {
		t.Fatalf("counter=%d", s.Get("a"))
	}
	if s.Counter("a") != c {
		t.Fatal("Counter not idempotent")
	}
	if s.Get("missing") != 0 {
		t.Fatal("missing counter nonzero")
	}
	s.Reset()
	if s.Get("a") != 0 {
		t.Fatal("reset failed")
	}
	if names := s.Names(); len(names) != 1 || names[0] != "a" {
		t.Fatalf("names=%v", names)
	}
}

// TestStatsGaugeDeltaKeepsValue checks that a gauge is a point-in-time
// value: snapshots carry it, and a window delta keeps the current value
// instead of subtracting, even when the gauge went down.
func TestStatsGaugeDeltaKeepsValue(t *testing.T) {
	s := NewStats()
	g := s.Scope("queue").Gauge("running")
	if s.Gauge("queue.running") != g {
		t.Fatal("Gauge not idempotent across scopes")
	}
	g.Set(5)
	base := s.Snapshot()
	if got := base.GetGauge("queue.running"); got != 5 {
		t.Fatalf("snapshot gauge = %d, want 5", got)
	}
	g.Set(2)
	d := s.Delta(base)
	if got := d.GetGauge("queue.running"); got != 2 {
		t.Fatalf("delta gauge = %d, want the current value 2", got)
	}
	if names := d.GaugeNames(); len(names) != 1 || names[0] != "queue.running" {
		t.Fatalf("gauge names = %v", names)
	}
	if names := d.CounterNames(); len(names) != 0 {
		t.Fatalf("a gauge leaked into the counters: %v", names)
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	if p := s.Percentile(50); math.Abs(p-50.5) > 1 {
		t.Fatalf("p50=%f", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("p0=%f", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Fatalf("p100=%f", p)
	}
	box := s.Box()
	if box.P25 >= box.P75 || box.P5 >= box.P95 {
		t.Fatalf("box out of order: %+v", box)
	}
	if box.N != 100 {
		t.Fatalf("box N=%d", box.N)
	}
}

func TestSamplePercentileMonotonic(t *testing.T) {
	rng := NewRNG(20)
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Observe(rng.Float64() * 100)
	}
	f := func(a, b uint8) bool {
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean=%f", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("empty geomean=%f", g)
	}
	if g := GeoMean([]float64{1, 1, 1}); math.Abs(g-1) > 1e-9 {
		t.Fatalf("unit geomean=%f", g)
	}
	// Non-positive entries are ignored.
	if g := GeoMean([]float64{0, -1, 4}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("filtered geomean=%f", g)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("division by zero not guarded")
	}
	if Ratio(3, 4) != 0.75 {
		t.Fatal("ratio wrong")
	}
}

// TestZetaMemoBitIdentical checks that the memoized harmonic number equals a
// direct computation bit for bit, on first and repeated lookups, and that
// concurrent NewZipf calls agree (run under -race).
func TestZetaMemoBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		n     uint64
		theta float64
	}{{2, 0.99}, {1000, 0.99}, {10000, 0.8}, {1 << 20, 0.99}, {123457, 0.5}} {
		want := math.Float64bits(zetaCompute(tc.n, tc.theta))
		for i := 0; i < 2; i++ {
			if got := math.Float64bits(zetaStatic(tc.n, tc.theta)); got != want {
				t.Fatalf("zetaStatic(%d, %v) lookup %d = %#x, want %#x", tc.n, tc.theta, i, got, want)
			}
		}
	}

	const workers = 8
	zs := make([]*Zipf, workers)
	var wg sync.WaitGroup
	for i := range zs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			zs[i] = NewZipf(NewRNG(1), 77777, 0.9, true)
		}(i)
	}
	wg.Wait()
	want := math.Float64bits(zetaCompute(77777, 0.9))
	for i, z := range zs {
		if got := math.Float64bits(z.zetan); got != want {
			t.Fatalf("worker %d: zetan %#x, want %#x", i, got, want)
		}
	}
}
