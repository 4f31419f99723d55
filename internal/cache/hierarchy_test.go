package cache

import (
	"slices"
	"strings"
	"testing"

	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// sharedConfig is a 4-core hierarchy whose LLC is small enough to evict
// lines that several cores' L2s hold.
var sharedConfig = HierarchyConfig{
	Cores:             4,
	L1:                Config{Name: "L1", Sets: 2, Ways: 2, Latency: 1},
	L2:                Config{Name: "L2", Sets: 4, Ways: 2, Latency: 4},
	LLC:               Config{Name: "LLC", Sets: 8, Ways: 4, Latency: 10},
	InstallPrefetched: true,
}

// newStubHierarchy builds cfg in front of a recording stub.
func newStubHierarchy(cfg HierarchyConfig) (*Hierarchy, *stubCtrl) {
	stats := sim.NewStats()
	ctrl := &stubCtrl{}
	h := NewHierarchy(cfg, ctrl, stats)
	h.StoreLine = func(addr uint64) { ctrl.stored = addr }
	return h, ctrl
}

// driveRandom sends n random loads and stores from random cores over a
// footprint of three times the LLC's lines, checking the hierarchy's
// invariants after every access when check is set.
func driveRandom(t *testing.T, h *Hierarchy, seed uint64, n int, check bool) {
	t.Helper()
	rng := sim.NewRNG(seed)
	lines := uint64(3 * h.cfg.LLC.Sets * h.cfg.LLC.Ways)
	for i := 0; i < n; i++ {
		core := rng.Intn(h.cfg.Cores)
		addr := rng.Uint64n(lines) * hybrid.CachelineSize
		h.Access(core, uint64(i)*10, addr, rng.Bool(0.3))
		if !check {
			continue
		}
		if err := h.CheckInclusion(); err != nil {
			t.Fatalf("access %d (core %d, %#x): %v", i, core, addr, err)
		}
	}
}

// TestHierarchyInclusionRandomStream drives 4-core hierarchies, with the
// stub's prefetch installs, through a random stream: every level's set
// check, L1 ⊆ L2 ⊆ LLC and the sharer bits must hold after every access,
// and LLC evictions must have happened for the check to mean anything. The
// 48 kB Table I hierarchy has 48 LLC sets, so it runs the LLC's
// remainder-based set index.
func TestHierarchyInclusionRandomStream(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  HierarchyConfig
	}{
		{"small", sharedConfig},
		{"tableI-48kB", DefaultHierarchy(4, 48)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, ctrl := newStubHierarchy(tc.cfg)
			driveRandom(t, h, 7, 5000, true)
			if len(ctrl.writes) == 0 || total(h.Counters().PrefetchInstalls) == 0 {
				t.Fatalf("stream too gentle: %d writebacks, %d prefetch installs",
					len(ctrl.writes), total(h.Counters().PrefetchInstalls))
			}
			h.Flush(1 << 20)
			if err := h.CheckInclusion(); err != nil {
				t.Fatalf("after flush: %v", err)
			}
			if ctrl.unstored != 0 {
				t.Fatalf("%d writebacks reached the controller before their line was stored", ctrl.unstored)
			}
		})
	}
}

// TestHierarchyFlushEmpties checks Flush leaves every level empty and
// consistent, so a second Flush has nothing to write back.
func TestHierarchyFlushEmpties(t *testing.T) {
	h, ctrl := newStubHierarchy(sharedConfig)
	driveRandom(t, h, 3, 2000, false)
	h.Flush(1 << 20)
	levels := []*Cache{h.LLC()}
	for core := 0; core < h.cfg.Cores; core++ {
		levels = append(levels, h.Level(1, core), h.Level(2, core))
	}
	for i, c := range levels {
		if lines := c.Lines(); len(lines) != 0 {
			t.Fatalf("level %d holds %d lines after Flush", i, len(lines))
		}
	}
	if err := h.CheckInclusion(); err != nil {
		t.Fatalf("after flush: %v", err)
	}
	before := len(ctrl.writes)
	h.Flush(1 << 21)
	if n := len(ctrl.writes) - before; n != 0 {
		t.Fatalf("second Flush wrote back %d lines", n)
	}
	// The emptied hierarchy fills again.
	driveRandom(t, h, 4, 500, true)
}

// TestCheckInclusionDetectsViolations breaks each invariant by hand and
// expects CheckInclusion to name it.
func TestCheckInclusionDetectsViolations(t *testing.T) {
	h, _ := newStubHierarchy(sharedConfig)
	h.Access(2, 0, 0x40, false)
	if err := h.CheckInclusion(); err != nil {
		t.Fatalf("fresh fill: %v", err)
	}
	// A set whose occupancy count disagrees with its valid ways.
	h.llc.used[h.llc.index(0x40)]++
	if err := h.CheckInclusion(); err == nil || !strings.Contains(err.Error(), "LLC: set 1: occupancy count") {
		t.Fatalf("corrupted occupancy count not reported: %v", err)
	}
	h.llc.used[h.llc.index(0x40)]--
	// A line held in two ways of its set.
	l1 := h.Level(1, 2)
	si, s := l1.find(0x40)
	dup := si * l1.cfg.Ways
	if dup == s {
		dup++
	}
	l1.tags[dup] = 0x40
	l1.used[si]++
	if err := h.CheckInclusion(); err == nil || !strings.Contains(err.Error(), "core 2: L1: set 1: line 0x40 held twice") {
		t.Fatalf("duplicate tag not reported: %v", err)
	}
	// A line in a set it does not map to.
	l1.tags[dup] = 0x80
	if err := h.CheckInclusion(); err == nil || !strings.Contains(err.Error(), "core 2: L1: set 1") ||
		!strings.Contains(err.Error(), "maps to set 0") {
		t.Fatalf("misplaced tag not reported: %v", err)
	}
	l1.tags[dup] = noLine
	l1.used[si]--
	if err := h.CheckInclusion(); err != nil {
		t.Fatalf("repaired: %v", err)
	}
	_, slot := h.llc.find(0x40)
	h.sharers[slot] = 0
	if err := h.CheckInclusion(); err == nil || !strings.Contains(err.Error(), "sharer bit") {
		t.Fatalf("cleared sharer bit not reported: %v", err)
	}
	h.LLC().Invalidate(0x40)
	if err := h.CheckInclusion(); err == nil || !strings.Contains(err.Error(), "not in LLC") {
		t.Fatalf("L2 line missing from LLC not reported: %v", err)
	}
	h.Level(2, 2).Invalidate(0x40)
	if err := h.CheckInclusion(); err == nil || !strings.Contains(err.Error(), "not in L2") {
		t.Fatalf("L1 line missing from L2 not reported: %v", err)
	}
	// A fill that evicts the L1 line L2 lacks, dirty, fails loudly: lines
	// 0x40, 0xc0 and 0x140 share L1 set 1 of core 2.
	l1.MarkDirty(0x40)
	h.Access(2, 0, 0xc0, false)
	expectPanic(t, "L1 ⊆ L2 is broken", func() { h.Access(2, 0, 0x140, false) })

	// So does an L2 fill that evicts a dirty line the LLC lacks: lines 0x40,
	// 0x140 and 0x240 share L2 set 1 of core 0.
	h, _ = newStubHierarchy(sharedConfig)
	h.Access(0, 0, 0x40, true)
	h.LLC().Invalidate(0x40)
	h.Access(0, 0, 0x140, false)
	expectPanic(t, "L2 ⊆ LLC is broken", func() { h.Access(0, 0, 0x240, false) })
}

// expectPanic runs f and fails unless it panics with a message holding want.
func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Errorf("panic %q, want one naming %q", msg, want)
		}
	}()
	f()
}

// TestHierarchyFlushOrderDeterministic drives two hierarchies identically and
// checks their flushes hand the controller the same writes, in ascending
// address order.
func TestHierarchyFlushOrderDeterministic(t *testing.T) {
	var logs [2][]uint64
	for i := range logs {
		h, ctrl := newStubHierarchy(sharedConfig)
		driveRandom(t, h, 11, 2000, false)
		before := len(ctrl.writes)
		h.Flush(1 << 20)
		logs[i] = ctrl.writes[before:]
	}
	if len(logs[0]) < 8 {
		t.Fatalf("only %d dirty lines flushed", len(logs[0]))
	}
	if !slices.Equal(logs[0], logs[1]) {
		t.Fatalf("flush orders differ:\n%x\n%x", logs[0], logs[1])
	}
	if !slices.IsSorted(logs[0]) {
		t.Fatalf("flush order not ascending: %x", logs[0])
	}
}

// TestNewHierarchyCoreLimit checks the core count is bounded by the sharer
// mask width.
func TestNewHierarchyCoreLimit(t *testing.T) {
	for _, cores := range []int{0, MaxCores + 1} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "want 1..64") {
					t.Errorf("cores=%d: panic %q, want the 1..64 limit", cores, msg)
				}
			}()
			NewHierarchy(DefaultHierarchy(cores, 64), &stubCtrl{}, sim.NewStats())
		}()
	}
	NewHierarchy(DefaultHierarchy(MaxCores, 64), &stubCtrl{}, sim.NewStats())
}

// nullCtrl serves every read as a fast hit, with one prefetched neighbour
// when prefetch is set, without recording anything, so a benchmark measures
// the hierarchy alone.
type nullCtrl struct {
	prefetch bool
	pf       [1]uint64
}

func (c *nullCtrl) Access(now uint64, addr uint64, write bool, data []byte) hybrid.Result {
	if write {
		return hybrid.Result{Done: now}
	}
	res := hybrid.Result{Done: now + 100, ServedByFast: true}
	if c.prefetch {
		c.pf[0] = addr ^ hybrid.CachelineSize
		res.Prefetched = c.pf[:]
	}
	return res
}
func (c *nullCtrl) Engine() *hybrid.Engine { return nil }

// BenchmarkHierarchyAccess drives the Table I hierarchy (16 cores, 64 kB
// LLC) with a stream that thrashes the LLC: each core draws random lines from
// a 4 MB footprint, a quarter of them stores, so most accesses fill the LLC
// and back-invalidate a victim. One op is 4096 accesses, round-robin over
// the cores. prefetch=1 installs one decompressed neighbour per miss, as
// Baryon does; prefetch=0 installs none, as Simple and Unison do.
func BenchmarkHierarchyAccess(b *testing.B) {
	for _, prefetch := range []bool{true, false} {
		name := "prefetch=0"
		if prefetch {
			name = "prefetch=1"
		}
		b.Run(name, func(b *testing.B) { benchHierarchyAccess(b, prefetch) })
	}
}

func benchHierarchyAccess(b *testing.B, prefetch bool) {
	const cores, lines, perOp = 16, 4 << 20 / hybrid.CachelineSize, 4096
	stats := sim.NewStats()
	h := NewHierarchy(DefaultHierarchy(cores, 64), &nullCtrl{prefetch: prefetch}, stats)
	rng := sim.NewRNG(1)
	now := uint64(0)
	op := func() {
		for i := 0; i < perOp; i++ {
			addr := rng.Uint64n(lines) * hybrid.CachelineSize
			h.Access(i%cores, now, addr, rng.Bool(0.25))
			now++
		}
	}
	for i := 0; i < 16; i++ { // fill every level before timing
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perOp), "ns/access")
}

// Level returns the per-core L1 or L2 cache (level 1 or 2) for tests and
// instrumentation.
func (h *Hierarchy) Level(level, core int) *Cache {
	if level == 1 {
		return h.l1[core]
	}
	return h.l2[core]
}

// LLC returns the shared last-level cache.
func (h *Hierarchy) LLC() *Cache { return h.llc }
