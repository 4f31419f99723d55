// Package cache models the set-associative caches of Table I. Hierarchy
// runs the processor side: per-core L1/L2 and a shared, inclusive LLC with
// back-invalidation, all metadata-only (the functional data plane lives in
// the memory controller and the run harness). Dirty LLC evictions become
// memory-controller writes; LLC misses become controller reads;
// decompression by-products can be installed as free prefetches (Section
// III-E, memory-to-LLC prefetching). Baryon's on-chip remap cache (Section
// III-B) is one more Cache, one line per super-block.
package cache

import (
	"fmt"
	"math/bits"
	"slices"

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

// noLine tags an empty way. Lines are 64 B aligned, so no line address has
// all bits set.
const noLine = ^uint64(0)

// Cache is one set-associative, LRU, write-back cache level. Its way state
// lives in flat set-major arrays indexed by slot, set*ways+way: the line
// address (noLine when empty), the tick of the last touch, and the dirty
// bit; an empty way's tick and dirty bit mean nothing. Ticks are unique per
// level, so LRU order has no ties.
type Cache struct {
	cfg   Config
	tags  []uint64
	lru   []uint64
	dirty []bool
	used  []int32 // valid ways per set
	// pow2 is set when Sets is a power of two: index then masks the line
	// number with Sets-1 instead of dividing by Sets.
	pow2 bool
	tick uint64

	hits, misses *sim.Counter
}

// New builds a cache and registers hit/miss counters in stats under the
// level's name scope. A config with an empty Name registers bare
// "hits"/"misses", for callers that hand in an already-scoped view.
func New(cfg Config, stats *sim.Stats) *Cache {
	n := cfg.Sets * cfg.Ways
	c := &Cache{
		cfg:   cfg,
		tags:  make([]uint64, n),
		lru:   make([]uint64, n),
		dirty: make([]bool, n),
		used:  make([]int32, cfg.Sets),
	}
	c.pow2 = bits.OnesCount(uint(cfg.Sets)) == 1
	c.reset()
	s := stats.Scope(cfg.Name)
	c.hits = s.Counter("hits")
	c.misses = s.Counter("misses")
	return c
}

// index returns the set of the line at addr.
func (c *Cache) index(addr uint64) int {
	line := addr / hybrid.CachelineSize
	if c.pow2 {
		return int(line & uint64(c.cfg.Sets-1))
	}
	return int(line % uint64(c.cfg.Sets))
}

// find returns addr's set and the slot holding it, or -1 if it is absent,
// without LRU or counter side effects.
func (c *Cache) find(addr uint64) (int, int) {
	si := c.index(addr)
	base := si * c.cfg.Ways
	for w, t := range c.tags[base : base+c.cfg.Ways] {
		if t == addr {
			return si, base + w
		}
	}
	return si, -1
}

// Access looks up the line at addr (line-aligned), updating LRU and
// counters. If write is true and the line hits, it is marked dirty.
func (c *Cache) Access(addr uint64, write bool) bool {
	return c.access(addr, write) >= 0
}

// access is Access returning the hit line's slot, or -1 on a miss.
func (c *Cache) access(addr uint64, write bool) int {
	c.tick++
	if _, s := c.find(addr); s >= 0 {
		c.lru[s] = c.tick
		if write {
			c.dirty[s] = true
		}
		c.hits.Inc()
		return s
	}
	c.misses.Inc()
	return -1
}

// Probe reports presence without LRU or counter side effects.
func (c *Cache) Probe(addr uint64) bool {
	_, s := c.find(addr)
	return s >= 0
}

// Victim describes a line displaced by InstallAbsent.
type Victim struct {
	Addr  uint64
	Dirty bool
	Valid bool
}

// InstallAbsent installs addr, which must be absent, and returns the
// displaced victim and the slot that now holds addr. The victim is the
// first empty way of the set, otherwise its least recently used way.
func (c *Cache) InstallAbsent(addr uint64, dirty bool) (Victim, int) {
	c.tick++
	si := c.index(addr)
	base := si * c.cfg.Ways
	set := c.tags[base : base+c.cfg.Ways]
	var v Victim
	var s int
	if int(c.used[si]) < len(set) {
		s = base + slices.Index(set, noLine)
		c.used[si]++
	} else {
		s = base
		oldest := c.lru[base]
		for i, t := range c.lru[base : base+len(set)] {
			if t < oldest {
				s, oldest = base+i, t
			}
		}
		v = Victim{Addr: c.tags[s], Dirty: c.dirty[s], Valid: true}
	}
	c.tags[s], c.lru[s], c.dirty[s] = addr, c.tick, dirty
	return v, s
}

// MarkDirty sets the dirty bit if the line is present and reports presence.
func (c *Cache) MarkDirty(addr uint64) bool {
	if _, s := c.find(addr); s >= 0 {
		c.dirty[s] = true
		return true
	}
	return false
}

// Invalidate removes the line if present, reporting (present, wasDirty).
func (c *Cache) Invalidate(addr uint64) (bool, bool) {
	si, s := c.find(addr)
	if s < 0 {
		return false, false
	}
	c.tags[s] = noLine
	c.used[si]--
	return true, c.dirty[s]
}

// reset empties every way.
func (c *Cache) reset() {
	for i := range c.tags {
		c.tags[i] = noLine
	}
	clear(c.used)
}

// DirtyLines returns the addresses of all dirty lines (used by Flush).
func (c *Cache) DirtyLines() []uint64 {
	var out []uint64
	for s, t := range c.tags {
		if t != noLine && c.dirty[s] {
			out = append(out, t)
		}
	}
	return out
}

// Lines returns the addresses of all valid lines.
func (c *Cache) Lines() []uint64 {
	var out []uint64
	for _, t := range c.tags {
		if t != noLine {
			out = append(out, t)
		}
	}
	return out
}

// check verifies the level's structural invariants: every line sits in the
// set it maps to, no set holds a line twice, and each set's occupancy count
// equals its valid ways. It returns the first violation found.
func (c *Cache) check() error {
	for si := range c.used {
		base := si * c.cfg.Ways
		set := c.tags[base : base+c.cfg.Ways]
		n := 0
		for w, t := range set {
			if t == noLine {
				continue
			}
			n++
			if got := c.index(t); got != si {
				return fmt.Errorf("set %d way %d: line %#x maps to set %d", si, w, t, got)
			}
			if slices.Contains(set[:w], t) {
				return fmt.Errorf("set %d: line %#x held twice", si, t)
			}
		}
		if u := int(c.used[si]); u != n || u > c.cfg.Ways {
			return fmt.Errorf("set %d: occupancy count %d, %d valid ways of %d", si, u, n, c.cfg.Ways)
		}
	}
	return nil
}
