// Package cache models the processor-side cache hierarchy of Table I:
// per-core L1/L2 and a shared, inclusive LLC with back-invalidation, all
// metadata-only (the functional data plane lives in the memory controller
// and the run harness). Dirty LLC evictions become memory-controller writes;
// LLC misses become controller reads; decompression by-products can be
// installed as free prefetches (Section III-E, memory-to-LLC prefetching).
package cache

import (
	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// Config describes one cache level.
type Config struct {
	Name    string
	Sets    int
	Ways    int
	Latency uint64 // access latency in cycles
}

// cacheLine is the per-way payload in the kit's tag directory; the line
// address, valid bit and LRU rank live in the directory's WayMeta.
type cacheLine struct {
	dirty bool
}

// Cache is one set-associative, LRU, write-back cache level on the shared
// controller-kit directory (hybrid.Dir + hybrid.LRU).
type Cache struct {
	cfg  Config
	dir  *hybrid.Dir[cacheLine]
	rep  hybrid.Replacer
	tick uint64

	hits, misses *sim.Counter
}

// New builds a cache and registers hit/miss counters in stats under the
// level's name scope. A config with an empty Name registers bare
// "hits"/"misses", for callers that hand in an already-scoped view.
func New(cfg Config, stats *sim.Stats) *Cache {
	c := &Cache{
		cfg: cfg,
		dir: hybrid.NewDirSets[cacheLine](uint64(cfg.Sets), cfg.Ways),
		rep: hybrid.LRU{},
	}
	s := stats.Scope(cfg.Name)
	c.hits = s.Counter("hits")
	c.misses = s.Counter("misses")
	return c
}

// Hits returns the typed handle of the level's hit counter.
func (c *Cache) Hits() *sim.Counter { return c.hits }

// Misses returns the typed handle of the level's miss counter.
func (c *Cache) Misses() *sim.Counter { return c.misses }

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) int {
	return int((addr / hybrid.CachelineSize) % uint64(c.cfg.Sets))
}

func (c *Cache) find(addr uint64) (int, int) {
	si := c.index(addr)
	return si, c.dir.Lookup(si, addr)
}

// Access looks up the line at addr (line-aligned), updating LRU and
// counters. If write is true and the line hits, it is marked dirty.
func (c *Cache) Access(addr uint64, write bool) bool {
	return c.access(addr, write) >= 0
}

// access is Access returning the hit line's slot, or -1 on a miss.
func (c *Cache) access(addr uint64, write bool) int {
	c.tick++
	if si, w := c.find(addr); w >= 0 {
		m, line := c.dir.Way(si, w)
		m.LastUse = c.tick
		if write {
			line.dirty = true
		}
		c.hits.Inc()
		return c.slot(si, w)
	}
	c.misses.Inc()
	return -1
}

// Probe reports presence without LRU or counter side effects.
func (c *Cache) Probe(addr uint64) bool {
	_, w := c.find(addr)
	return w >= 0
}

// slot flattens (set, way) into the level's way index, set*ways+way: the
// index of a side array with one entry per way.
func (c *Cache) slot(si, w int) int { return si*c.cfg.Ways + w }

// slotOf returns the slot holding addr, or -1 if it is absent, without LRU
// or counter side effects.
func (c *Cache) slotOf(addr uint64) int {
	if si, w := c.find(addr); w >= 0 {
		return c.slot(si, w)
	}
	return -1
}

// Victim describes a line displaced by Install.
type Victim struct {
	Addr  uint64
	Dirty bool
	Valid bool
}

// Install inserts the line at addr (line-aligned), evicting the LRU way if
// the set is full. It returns the displaced victim, if any. Installing an
// already-present line just refreshes it.
func (c *Cache) Install(addr uint64, dirty bool) Victim {
	v, _ := c.install(addr, dirty)
	return v
}

// install is Install also returning the slot that now holds addr.
func (c *Cache) install(addr uint64, dirty bool) (Victim, int) {
	c.tick++
	si, w := c.find(addr)
	if w >= 0 {
		m, line := c.dir.Way(si, w)
		m.LastUse = c.tick
		line.dirty = line.dirty || dirty
		return Victim{}, c.slot(si, w)
	}
	vw := c.dir.Victim(si, c.rep)
	m, line := c.dir.Way(si, vw)
	v := Victim{}
	if m.Valid {
		v = Victim{Addr: m.Key, Dirty: line.dirty, Valid: true}
	}
	*m = hybrid.WayMeta{Key: addr, Valid: true, LastUse: c.tick}
	*line = cacheLine{dirty: dirty}
	return v, c.slot(si, vw)
}

// MarkDirty sets the dirty bit if the line is present and reports presence.
func (c *Cache) MarkDirty(addr uint64) bool {
	if si, w := c.find(addr); w >= 0 {
		c.dir.Payload(si, w).dirty = true
		return true
	}
	return false
}

// Invalidate removes the line if present, reporting (present, wasDirty).
func (c *Cache) Invalidate(addr uint64) (bool, bool) {
	if si, w := c.find(addr); w >= 0 {
		m, line := c.dir.Way(si, w)
		dirty := line.dirty
		*m = hybrid.WayMeta{}
		*line = cacheLine{}
		return true, dirty
	}
	return false, false
}

// DirtyLines returns the addresses of all dirty lines (used by Flush).
func (c *Cache) DirtyLines() []uint64 {
	var out []uint64
	for si := 0; si < c.cfg.Sets; si++ {
		for w := 0; w < c.cfg.Ways; w++ {
			if m, line := c.dir.Way(si, w); m.Valid && line.dirty {
				out = append(out, m.Key)
			}
		}
	}
	return out
}

// Lines returns the addresses of all valid lines.
func (c *Cache) Lines() []uint64 {
	var out []uint64
	for si := 0; si < c.cfg.Sets; si++ {
		for w := 0; w < c.cfg.Ways; w++ {
			if m, _ := c.dir.Way(si, w); m.Valid {
				out = append(out, m.Key)
			}
		}
	}
	return out
}
