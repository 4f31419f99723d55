package cache

import (
	"fmt"
	"slices"
	"testing"

	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

func newTestCache(sets, ways int) (*Cache, *sim.Stats) {
	stats := sim.NewStats()
	return New(Config{Name: "t", Sets: sets, Ways: ways, Latency: 1}, stats), stats
}

func TestCacheHitMiss(t *testing.T) {
	c, stats := newTestCache(4, 2)
	if c.Access(0, false) {
		t.Fatal("cold hit")
	}
	c.Install(0, false)
	if !c.Access(0, false) {
		t.Fatal("installed line missed")
	}
	if stats.Get("t.hits") != 1 || stats.Get("t.misses") != 1 {
		t.Fatalf("hits=%d misses=%d", stats.Get("t.hits"), stats.Get("t.misses"))
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, _ := newTestCache(1, 2)
	c.Install(0*64, false)
	c.Install(1*64, false)
	c.Access(0, false) // make line 0 MRU
	v := c.Install(2*64, false)
	if !v.Valid || v.Addr != 1*64 {
		t.Fatalf("evicted %+v, want line 1 (LRU)", v)
	}
	if !c.Probe(0) || c.Probe(64) || !c.Probe(128) {
		t.Fatal("wrong lines resident")
	}
}

func TestCacheDirtyTracking(t *testing.T) {
	c, _ := newTestCache(1, 1)
	c.Install(0, false)
	c.Access(0, true) // write marks dirty
	v := c.Install(64, false)
	if !v.Valid || !v.Dirty {
		t.Fatalf("dirty victim lost: %+v", v)
	}
}

// TestCacheAsRemapCache drives a Cache the way Baryon's remap cache does:
// one line per super-block at key super*64, a probe with Access, an
// InstallAbsent after a miss, and MarkDirty on an entry update.
func TestCacheAsRemapCache(t *testing.T) {
	c, stats := newTestCache(4, 2)
	key := func(super uint64) uint64 { return super * 64 }
	if c.Access(key(100), false) {
		t.Fatal("empty cache hit")
	}
	c.InstallAbsent(key(100), false)
	if !c.Access(key(100), false) {
		t.Fatal("inserted line missed")
	}
	if !c.MarkDirty(key(100)) {
		t.Fatal("MarkDirty on cached line returned false")
	}
	// Supers 100 and 104 share set 0 of 4; 104 becomes MRU.
	c.InstallAbsent(key(104), false)
	c.Access(key(104), false)
	// The next insert into that set evicts the dirty LRU line, 100.
	if v, _ := c.InstallAbsent(key(108), false); v != (Victim{Addr: key(100), Dirty: true, Valid: true}) {
		t.Fatalf("victim %+v, want dirty super 100", v)
	}
	if c.Access(key(100), false) {
		t.Fatal("evicted line still present")
	}
	if stats.Get("t.hits") != 2 || stats.Get("t.misses") != 2 {
		t.Fatalf("hits=%d misses=%d, want 2 and 2", stats.Get("t.hits"), stats.Get("t.misses"))
	}
}

func TestCacheInvalidate(t *testing.T) {
	c, _ := newTestCache(2, 2)
	c.Install(0, true)
	present, dirty := c.Invalidate(0)
	if !present || !dirty {
		t.Fatal("invalidate lost state")
	}
	if present, _ := c.Invalidate(0); present {
		t.Fatal("double invalidate")
	}
}

func TestDirtyLines(t *testing.T) {
	c, _ := newTestCache(4, 2)
	c.Install(0, true)
	c.Install(64, false)
	c.Install(128, true)
	d := c.DirtyLines()
	if len(d) != 2 {
		t.Fatalf("dirty lines %v", d)
	}
}

// controller stub records accesses for hierarchy tests.
type stubCtrl struct {
	reads  []uint64
	writes []uint64
	// stored is the last line the hierarchy's StoreLine hook stored;
	// unstored counts writebacks that reached Access without it.
	stored   uint64
	unstored int
}

func (s *stubCtrl) Access(now uint64, addr uint64, write bool, data []byte) hybrid.Result {
	if write {
		if s.stored != addr {
			s.unstored++
		}
		s.writes = append(s.writes, addr)
		return hybrid.Result{Done: now}
	}
	s.reads = append(s.reads, addr)
	return hybrid.Result{
		Done: now + 100, ServedByFast: true,
		Prefetched: []uint64{addr ^ 64},
	}
}
func (s *stubCtrl) Engine() *hybrid.Engine { return nil }

func newTestHierarchy(t *testing.T) (*Hierarchy, *stubCtrl, *sim.Stats) {
	t.Helper()
	stats := sim.NewStats()
	ctrl := &stubCtrl{}
	cfg := HierarchyConfig{
		Cores:             2,
		L1:                Config{Name: "L1", Sets: 2, Ways: 2, Latency: 1},
		L2:                Config{Name: "L2", Sets: 4, Ways: 2, Latency: 4},
		LLC:               Config{Name: "LLC", Sets: 8, Ways: 2, Latency: 10},
		InstallPrefetched: true,
	}
	h := NewHierarchy(cfg, ctrl, stats)
	h.StoreLine = func(addr uint64) { ctrl.stored = addr }
	return h, ctrl, stats
}

func TestHierarchyMissGoesToController(t *testing.T) {
	h, ctrl, stats := newTestHierarchy(t)
	done := h.Access(0, 0, 0x1000, false)
	if len(ctrl.reads) != 1 {
		t.Fatalf("controller saw %d reads", len(ctrl.reads))
	}
	if done < 100 {
		t.Fatalf("latency %d too small", done)
	}
	if stats.Get("hierarchy.llcMisses") != 1 {
		t.Fatal("llc miss not counted")
	}
	// Second access: L1 hit, no controller traffic.
	h.Access(0, 200, 0x1000, false)
	if len(ctrl.reads) != 1 {
		t.Fatal("hit went to controller")
	}
}

func TestHierarchyPrefetchInstall(t *testing.T) {
	h, ctrl, stats := newTestHierarchy(t)
	h.Access(0, 0, 0x1000, false)
	// The stub prefetches addr^64; accessing it must hit the LLC, not the
	// controller.
	h.Access(1, 100, 0x1000^64, false)
	if len(ctrl.reads) != 1 {
		t.Fatalf("prefetched line missed LLC: reads=%v", ctrl.reads)
	}
	if stats.Get("hierarchy.prefetchInstalls") != 1 {
		t.Fatal("prefetch install not counted")
	}
}

func TestHierarchyWritebackOnFlush(t *testing.T) {
	h, ctrl, _ := newTestHierarchy(t)
	h.Access(0, 0, 0x2000, true)
	if len(ctrl.writes) != 0 {
		t.Fatal("write reached controller before eviction")
	}
	h.Flush(1000)
	if len(ctrl.writes) != 1 || ctrl.writes[0] != 0x2000 {
		t.Fatalf("flush writebacks: %v", ctrl.writes)
	}
}

func TestHierarchyDirtyEviction(t *testing.T) {
	h, ctrl, _ := newTestHierarchy(t)
	// Write one line, then stream enough lines through the same LLC set to
	// force its eviction; the dirty data must reach the controller.
	h.Access(0, 0, 0x0, true)
	for i := 1; i <= 4; i++ {
		// LLC has 8 sets: stride 8*64 stays in set 0.
		h.Access(0, uint64(i*100), uint64(i*8*64), false)
	}
	if len(ctrl.writes) == 0 {
		t.Fatal("dirty line never written back")
	}
	if ctrl.unstored != 0 {
		t.Fatalf("%d writebacks reached the controller before their line was stored", ctrl.unstored)
	}
}

func TestHierarchyServeCounters(t *testing.T) {
	h, _, stats := newTestHierarchy(t)
	h.Access(0, 0, 0x3000, false)
	if stats.Get("hierarchy.servedFast") != 1 {
		t.Fatal("servedFast not counted")
	}
}

func TestDefaultHierarchyShape(t *testing.T) {
	cfg := DefaultHierarchy(16, 64)
	if cfg.Cores != 16 {
		t.Fatal("cores wrong")
	}
	llcLines := cfg.LLC.Sets * cfg.LLC.Ways
	if llcLines*hybrid.CachelineSize != 64*1024 {
		t.Fatalf("LLC capacity %d B, want 64 kB", llcLines*hybrid.CachelineSize)
	}
}

// refWay is one way of the reference model.
type refWay struct {
	addr, tick   uint64
	valid, dirty bool
}

// refCache is an independent model of one LRU write-back level: per-set
// slices of ways, a tick per Access/Install, and the victim rule "first
// empty way, otherwise the smallest tick".
type refCache struct {
	sets [][]refWay
	tick uint64
}

func newRefCache(sets, ways int) *refCache {
	r := &refCache{sets: make([][]refWay, sets)}
	for i := range r.sets {
		r.sets[i] = make([]refWay, ways)
	}
	return r
}

func (r *refCache) way(addr uint64) (set []refWay, w int) {
	set = r.sets[addr/64%uint64(len(r.sets))]
	for w := range set {
		if set[w].valid && set[w].addr == addr {
			return set, w
		}
	}
	return set, -1
}

func (r *refCache) access(addr uint64, write bool) bool {
	r.tick++
	set, w := r.way(addr)
	if w < 0 {
		return false
	}
	set[w].tick = r.tick
	set[w].dirty = set[w].dirty || write
	return true
}

func (r *refCache) install(addr uint64, dirty bool) Victim {
	r.tick++
	set, w := r.way(addr)
	if w >= 0 {
		set[w].tick = r.tick
		set[w].dirty = set[w].dirty || dirty
		return Victim{}
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	var v Victim
	if victim < 0 {
		victim = 0
		for i := range set {
			if set[i].tick < set[victim].tick {
				victim = i
			}
		}
		v = Victim{Addr: set[victim].addr, Dirty: set[victim].dirty, Valid: true}
	}
	set[victim] = refWay{addr: addr, tick: r.tick, valid: true, dirty: dirty}
	return v
}

func (r *refCache) lines(dirtyOnly bool) []uint64 {
	var out []uint64
	for _, set := range r.sets {
		for _, w := range set {
			if w.valid && (w.dirty || !dirtyOnly) {
				out = append(out, w.addr)
			}
		}
	}
	slices.Sort(out)
	return out
}

func sorted(a []uint64) []uint64 {
	slices.Sort(a)
	return a
}

// TestCacheMatchesReference drives random Access/Install/Invalidate/
// MarkDirty/Probe sequences, plus the hierarchy's absent-line install, into
// Cache and the reference model over a footprint of twice the capacity, and
// requires identical results, victims and contents. The geometries cover a
// fully-associative set, odd and non-power-of-two set counts, the Table I
// L1/L2 shape and a direct-mapped cache.
func TestCacheMatchesReference(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{
		{1, 16}, {3, 2}, {48, 16}, {128, 8}, {4, 1},
	} {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			c, _ := newTestCache(g.sets, g.ways)
			ref := newRefCache(g.sets, g.ways)
			rng := sim.NewRNG(uint64(g.sets*100 + g.ways))
			lines := uint64(2 * g.sets * g.ways)
			for i := 0; i < 20000; i++ {
				addr := rng.Uint64n(lines) * 64
				flag := rng.Bool(0.3)
				switch op := rng.Intn(6); op {
				case 0:
					if got, want := c.Access(addr, flag), ref.access(addr, flag); got != want {
						t.Fatalf("op %d: Access(%#x, %v) = %v, want %v", i, addr, flag, got, want)
					}
				case 1:
					if got, want := c.Install(addr, flag), ref.install(addr, flag); got != want {
						t.Fatalf("op %d: Install(%#x, %v) = %+v, want %+v", i, addr, flag, got, want)
					}
				case 2:
					if _, w := ref.way(addr); w >= 0 {
						continue // InstallAbsent requires an absent line
					}
					got, slot := c.InstallAbsent(addr, flag)
					if want := ref.install(addr, flag); got != want {
						t.Fatalf("op %d: InstallAbsent(%#x, %v) = %+v, want %+v", i, addr, flag, got, want)
					}
					if c.tags[slot] != addr {
						t.Fatalf("op %d: InstallAbsent returned slot %d holding %#x", i, slot, c.tags[slot])
					}
				case 3:
					set, w := ref.way(addr)
					wantDirty := w >= 0 && set[w].dirty
					if w >= 0 {
						set[w] = refWay{}
					}
					if present, dirty := c.Invalidate(addr); present != (w >= 0) || dirty != wantDirty {
						t.Fatalf("op %d: Invalidate(%#x) = %v, %v, want %v, %v", i, addr, present, dirty, w >= 0, wantDirty)
					}
				case 4:
					set, w := ref.way(addr)
					if w >= 0 {
						set[w].dirty = true
					}
					if got := c.MarkDirty(addr); got != (w >= 0) {
						t.Fatalf("op %d: MarkDirty(%#x) = %v, want %v", i, addr, got, w >= 0)
					}
				case 5:
					_, w := ref.way(addr)
					if got := c.Probe(addr); got != (w >= 0) {
						t.Fatalf("op %d: Probe(%#x) = %v, want %v", i, addr, got, w >= 0)
					}
				}
				if i%97 != 0 {
					continue
				}
				if err := c.check(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if got, want := sorted(c.Lines()), ref.lines(false); !slices.Equal(got, want) {
					t.Fatalf("op %d: Lines() = %x, want %x", i, got, want)
				}
				if got, want := sorted(c.DirtyLines()), ref.lines(true); !slices.Equal(got, want) {
					t.Fatalf("op %d: DirtyLines() = %x, want %x", i, got, want)
				}
			}
			c.reset()
			if err := c.check(); err != nil || len(c.Lines()) != 0 {
				t.Fatalf("after reset: %v, %d lines", err, len(c.Lines()))
			}
		})
	}
}

// Install inserts the line at addr (line-aligned), evicting the LRU way if
// the set is full. It returns the displaced victim, if any. Installing an
// already-present line just refreshes it.
func (c *Cache) Install(addr uint64, dirty bool) Victim {
	if _, s := c.find(addr); s >= 0 {
		c.tick++
		c.lru[s] = c.tick
		c.dirty[s] = c.dirty[s] || dirty
		return Victim{}
	}
	v, _ := c.InstallAbsent(addr, dirty)
	return v
}
