package cache

import (
	"testing"

	"baryon/internal/sim"
)

// TestHierarchyRegistersPerCoreLevels pins the fix for the dropped per-core
// stats: every core's L1/L2 must register its counters on the run registry
// under "l1.coreK."/"l2.coreK." scopes, visible from the root view.
func TestHierarchyRegistersPerCoreLevels(t *testing.T) {
	_, _, stats := newTestHierarchy(t)
	names := map[string]bool{}
	for _, n := range stats.Names() {
		names[n] = true
	}
	for _, want := range []string{
		"l1.core0.hits", "l1.core0.misses",
		"l1.core1.hits", "l1.core1.misses",
		"l2.core0.hits", "l2.core0.misses",
		"l2.core1.hits", "l2.core1.misses",
		"LLC.hits", "LLC.misses",
	} {
		if !names[want] {
			t.Errorf("root Stats.Names() missing %q", want)
		}
	}
}

// TestHierarchyPerCoreCountersCount checks the scoped counters actually
// accumulate per-core traffic, and match the typed accessors.
func TestHierarchyPerCoreCountersCount(t *testing.T) {
	h, _, stats := newTestHierarchy(t)
	h.Access(0, 0, 0x1000, false)   // core 0: L1 miss, fills all levels
	h.Access(0, 200, 0x1000, false) // core 0: L1 hit
	h.Access(1, 400, 0x1000, false) // core 1: L1 miss, LLC hit

	if got := stats.Get("l1.core0.hits"); got != 1 {
		t.Errorf("l1.core0.hits = %d, want 1", got)
	}
	if got := stats.Get("l1.core0.misses"); got != 1 {
		t.Errorf("l1.core0.misses = %d, want 1", got)
	}
	if got := stats.Get("l1.core1.misses"); got != 1 {
		t.Errorf("l1.core1.misses = %d, want 1", got)
	}
	if got := stats.Get("l1.core1.hits"); got != 0 {
		t.Errorf("l1.core1.hits = %d, want 0", got)
	}
	// Typed accessors read the same counters.
	if total(h.Level(1, 0).Hits()) != stats.Get("l1.core0.hits") {
		t.Error("Level(1,0).Hits() disagrees with registry")
	}
	if total(h.LLC().Hits()) != stats.Get("LLC.hits") {
		t.Error("LLC().Hits() disagrees with registry")
	}
}

// Hits returns the typed handle of the level's hit counter.
func (c *Cache) Hits() *sim.Counter { return c.hits }

// total reads c's running count: its advance since an empty snapshot.
func total(c *sim.Counter) uint64 { return sim.Snapshot{}.DeltaOf(c) }
