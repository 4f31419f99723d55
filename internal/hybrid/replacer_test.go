package hybrid

import (
	"fmt"
	"testing"

	"baryon/internal/sim"
)

// randomSet builds a set of n ways with pseudo-random validity and ranks.
func randomSet(rng *sim.RNG, n int) []WayMeta {
	set := make([]WayMeta, n)
	for i := range set {
		set[i] = WayMeta{
			Key:      uint64(rng.Intn(1000)),
			Valid:    rng.Intn(4) != 0,
			LastUse:  uint64(rng.Intn(100)),
			AllocSeq: uint64(rng.Intn(100)),
		}
	}
	return set
}

// TestVictimWithinSet is the basic property every policy must satisfy: for
// any non-empty set the victim index is in range.
func TestVictimWithinSet(t *testing.T) {
	policies := []Replacer{LRU{}, FIFO{}, NewRandom(7), TwoLevelBlock{}}
	rng := sim.NewRNG(42)
	for _, p := range policies {
		for n := 1; n <= 8; n++ {
			for trial := 0; trial < 200; trial++ {
				set := randomSet(rng, n)
				v := p.Victim(set)
				if v < 0 || v >= n {
					t.Fatalf("%s: victim %d out of range for %d-way set", fmt.Sprintf("%T", p), v, n)
				}
			}
		}
	}
}

// TestLRUPicksOldest pins LRU semantics: first invalid way wins, otherwise
// the smallest LastUse with earliest-way tie-breaking.
func TestLRUPicksOldest(t *testing.T) {
	set := []WayMeta{
		{Valid: true, LastUse: 5},
		{Valid: true, LastUse: 2},
		{Valid: true, LastUse: 9},
		{Valid: true, LastUse: 2},
	}
	if v := (LRU{}).Victim(set); v != 1 {
		t.Fatalf("LRU victim = %d, want 1 (smallest LastUse, earliest tie)", v)
	}
	set[2].Valid = false
	if v := (LRU{}).Victim(set); v != 2 {
		t.Fatalf("LRU victim = %d, want invalid way 2", v)
	}
}

// TestFIFOPicksOldestAlloc pins FIFO semantics on AllocSeq.
func TestFIFOPicksOldestAlloc(t *testing.T) {
	set := []WayMeta{
		{Valid: true, AllocSeq: 30},
		{Valid: true, AllocSeq: 10},
		{Valid: true, AllocSeq: 20},
	}
	if v := (FIFO{}).Victim(set); v != 1 {
		t.Fatalf("FIFO victim = %d, want 1", v)
	}
}

// TestTwoLevelBlockMatchesStageOrder pins the stage tag array's historical
// victim order (Fig. 13(a) behaviour): invalid ways are found scanning from
// way 1, so an all-invalid set yields way 1, and way 0's staleness is only
// caught by the LastUse comparison.
func TestTwoLevelBlockMatchesStageOrder(t *testing.T) {
	// reference reimplementation of the pre-kit stageLRUWay
	ref := func(set []WayMeta) int {
		lru := 0
		for w := 1; w < len(set); w++ {
			if !set[w].Valid {
				return w
			}
			if set[w].LastUse < set[lru].LastUse {
				lru = w
			}
		}
		return lru
	}
	rng := sim.NewRNG(99)
	for trial := 0; trial < 2000; trial++ {
		set := randomSet(rng, 4)
		if got, want := (TwoLevelBlock{}).Victim(set), ref(set); got != want {
			t.Fatalf("TwoLevelBlock victim = %d, want %d for %+v", got, want, set)
		}
	}
	empty := make([]WayMeta, 4)
	if v := (TwoLevelBlock{}).Victim(empty); v != 1 {
		t.Fatalf("all-invalid set: victim = %d, want 1 (scan starts at way 1)", v)
	}
}

// TestRandomDeterministic pins that the random policy is seeded (two
// replacers with the same seed produce the same victim stream) and prefers
// invalid ways in way order.
func TestRandomDeterministic(t *testing.T) {
	a, b := NewRandom(5), NewRandom(5)
	set := []WayMeta{{Valid: true}, {Valid: true}, {Valid: true}, {Valid: true}}
	for i := 0; i < 100; i++ {
		if va, vb := a.Victim(set), b.Victim(set); va != vb {
			t.Fatalf("same-seed Random diverged at step %d: %d vs %d", i, va, vb)
		}
	}
	set[2].Valid = false
	set[3].Valid = false
	if v := a.Victim(set); v != 2 {
		t.Fatalf("Random victim = %d, want first invalid way 2", v)
	}
}

// TestSlotFIFO pins the sub-block half of the two-level policy: the pointer
// skips invalid slots and always advances past the victim.
func TestSlotFIFO(t *testing.T) {
	valid := [8]bool{false, false, true, true, false, true, false, false}
	slot, next := SlotFIFO(0, 8, func(i int) bool { return valid[i] })
	if slot != 2 || next != 3 {
		t.Fatalf("SlotFIFO(0) = (%d, %d), want (2, 3)", slot, next)
	}
	slot, next = SlotFIFO(6, 8, func(i int) bool { return valid[i] })
	if slot != 2 || next != 3 {
		t.Fatalf("SlotFIFO(6) = (%d, %d), want wrap to (2, 3)", slot, next)
	}
	// No valid slot: the pointer itself is the victim after a full scan.
	slot, next = SlotFIFO(5, 8, func(i int) bool { return false })
	if slot != 5 || next != 6 {
		t.Fatalf("SlotFIFO all-invalid = (%d, %d), want (5, 6)", slot, next)
	}
}

// TestReplacerByName pins the DesignSpec policy-name mapping.
func TestReplacerByName(t *testing.T) {
	for name, want := range map[string]string{
		"": "hybrid.LRU", "lru": "hybrid.LRU", "fifo": "hybrid.FIFO",
		"random": "*hybrid.Random", "two-level": "hybrid.TwoLevelBlock",
	} {
		r, ok := ReplacerByName(name, 1)
		if !ok {
			t.Fatalf("ReplacerByName(%q) not found", name)
		}
		if got := fmt.Sprintf("%T", r); got != want {
			t.Fatalf("ReplacerByName(%q) is a %s, want %s", name, got, want)
		}
	}
	if _, ok := ReplacerByName("clock", 1); ok {
		t.Fatal("ReplacerByName accepted unknown policy")
	}
}

// TestDirVictimAndLookup exercises the directory with each policy: Lookup
// finds what was installed, Victim stays in range, and evicting the victim
// keeps the set consistent.
func TestDirVictimAndLookup(t *testing.T) {
	for _, p := range []Replacer{LRU{}, FIFO{}, NewRandom(3), TwoLevelBlock{}} {
		d := NewDirSets[int](8, 4)
		seq := uint64(0)
		rng := sim.NewRNG(11)
		for i := 0; i < 500; i++ {
			key := uint64(rng.Intn(64))
			si := d.SetIndex(key)
			w := d.Lookup(si, key)
			if w < 0 {
				w = d.Victim(si, p)
				if w < 0 || w >= d.Assoc() {
					t.Fatalf("%s: victim %d out of range", fmt.Sprintf("%T", p), w)
				}
				m, _ := d.Way(si, w)
				*m = WayMeta{Key: key, Valid: true, AllocSeq: seq}
			}
			m, _ := d.Way(si, w)
			if !m.Valid || m.Key != key {
				t.Fatalf("%s: way (%d,%d) holds key %d valid=%v, want %d", fmt.Sprintf("%T", p), si, w, m.Key, m.Valid, key)
			}
			m.LastUse = seq
			seq++
			if again := d.Lookup(si, key); again != w {
				t.Fatalf("%s: Lookup after install = %d, want %d", fmt.Sprintf("%T", p), again, w)
			}
		}
	}
}

// Assoc returns the ways per set.
func (d *Dir[P]) Assoc() int { return d.assoc }
