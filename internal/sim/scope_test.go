package sim

import (
	"math"
	"testing"
)

func TestStatsScopeSharesRegistry(t *testing.T) {
	root := NewStats()
	a := root.Scope("l1.core0")
	b := root.Scope("l1").Scope("core0")

	c1 := a.Counter("hits")
	c2 := b.Counter("hits")
	if c1 != c2 {
		t.Fatal("nested scopes with the same prefix must resolve to the same counter")
	}
	c1.Add(3)
	if got := root.Get("l1.core0.hits"); got != 3 {
		t.Fatalf("root sees %d, want 3", got)
	}
	if got := a.Get("hits"); got != 3 {
		t.Fatalf("scoped view sees %d, want 3", got)
	}
}

func TestStatsScopeEmptyReturnsSame(t *testing.T) {
	root := NewStats()
	if root.Scope("") != root {
		t.Fatal(`Scope("") must return the receiver`)
	}
}

func TestStatsNamesFilteredByScope(t *testing.T) {
	root := NewStats()
	root.Counter("top")
	s := root.Scope("mem")
	s.Counter("reads")
	s.Counter("writes")

	names := s.Names()
	if len(names) != 2 || names[0] != "reads" || names[1] != "writes" {
		t.Fatalf("scoped Names = %v, want [reads writes]", names)
	}
	all := root.Names()
	if len(all) != 3 || all[0] != "top" || all[1] != "mem.reads" || all[2] != "mem.writes" {
		t.Fatalf("root Names = %v", all)
	}
}

func TestSnapshotDelta(t *testing.T) {
	root := NewStats()
	c := root.Counter("x")
	f := root.Float("e")
	c.Add(10)
	f.Add(1.5)

	snap := root.Snapshot()
	c.Add(7)
	f.Add(2.5)

	if got := snap.DeltaOf(c); got != 7 {
		t.Fatalf("DeltaOf = %d, want 7", got)
	}
	if got := snap.DeltaOfFloat(f); got != 2.5 {
		t.Fatalf("DeltaOfFloat = %v, want 2.5", got)
	}
	d := root.Delta(snap)
	if got := d.Get("x"); got != 7 {
		t.Fatalf("Delta.Get(x) = %d, want 7", got)
	}
	if got := d.GetFloat("e"); got != 2.5 {
		t.Fatalf("Delta.GetFloat(e) = %v, want 2.5", got)
	}
}

func TestSnapshotOfScopedView(t *testing.T) {
	root := NewStats()
	c := root.Scope("dev").Counter("reads")
	c.Add(4)
	// Snapshot through a scoped view still covers the whole registry, so
	// window deltas work no matter which view took the snapshot.
	snap := root.Scope("dev").Snapshot()
	c.Add(5)
	if got := snap.DeltaOf(c); got != 5 {
		t.Fatalf("DeltaOf through scoped snapshot = %d, want 5", got)
	}
}

func TestSnapshotUnknownCounterDeltaIsFullValue(t *testing.T) {
	root := NewStats()
	snap := root.Snapshot()
	c := root.Counter("late") // registered after the snapshot
	c.Add(9)
	if got := snap.DeltaOf(c); got != 9 {
		t.Fatalf("DeltaOf late-registered counter = %d, want 9", got)
	}
}

func TestFloatAccum(t *testing.T) {
	root := NewStats()
	f := root.Float("energy")
	f.Add(0.25)
	f.Add(0.5)
	if f.v != 0.75 {
		t.Fatalf("FloatAccum value = %v, want 0.75", f.v)
	}
	if got := root.GetFloat("energy"); got != 0.75 {
		t.Fatalf("GetFloat = %v, want 0.75", got)
	}
	if same := root.Float("energy"); same != f {
		t.Fatal("re-registering a float must return the same accumulator")
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.N() != 0 {
		t.Fatalf("empty N = %d", s.N())
	}
	if s.Mean() != 0 {
		t.Fatalf("empty Mean = %v, want 0", s.Mean())
	}
	for _, p := range []float64{0, 50, 100} {
		if got := s.Percentile(p); got != 0 {
			t.Fatalf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}
	box := s.Box()
	if box.N != 0 || box.P50 != 0 {
		t.Fatalf("empty Box = %+v", box)
	}
}

func TestSamplePercentileBounds(t *testing.T) {
	var s Sample
	for _, x := range []float64{5, 1, 3} {
		s.Observe(x)
	}
	// Out-of-range percentiles clamp to the extremes.
	if got := s.Percentile(-10); got != 1 {
		t.Fatalf("Percentile(-10) = %v, want min 1", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("Percentile(0) = %v, want 1", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Fatalf("Percentile(100) = %v, want 5", got)
	}
	if got := s.Percentile(200); got != 5 {
		t.Fatalf("Percentile(200) = %v, want 5", got)
	}
	// Interpolation between ranks: 25th percentile of {1,3,5} sits halfway
	// between 1 and 3.
	if got := s.Percentile(25); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Percentile(25) = %v, want 2", got)
	}
}

func TestSampleMergeAfterPercentile(t *testing.T) {
	var a, b Sample
	for _, x := range []float64{9, 1} {
		a.Observe(x)
	}
	// Force a sort so the merge below must invalidate the sorted flag.
	if got := a.Percentile(50); got != 5 {
		t.Fatalf("pre-merge median = %v, want 5", got)
	}
	for _, x := range []float64{2, 0} {
		b.Observe(x)
	}
	a.Merge(&b)
	if a.N() != 4 {
		t.Fatalf("merged N = %d, want 4", a.N())
	}
	// {0,1,2,9}: median interpolates between 1 and 2.
	if got := a.Percentile(50); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("post-merge median = %v, want 1.5", got)
	}
	// Merging an empty sample is a no-op.
	var empty Sample
	a.Merge(&empty)
	if a.N() != 4 {
		t.Fatalf("N after empty merge = %d, want 4", a.N())
	}
}
