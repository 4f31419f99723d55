package metadata

import "baryon/internal/sim"

// RemapCache models the on-chip SRAM remap cache of Table I: 256 sets,
// 8 ways, one line per super-block holding that super-block's eight 2-byte
// remap entries (16 B) plus tag. It tracks presence/dirtiness for timing and
// metadata-traffic accounting; the authoritative entries live in the
// controller's remap table (resident in fast memory).
type RemapCache struct {
	sets, ways int
	// lines is the flat sets*ways tag array; set i occupies
	// lines[i*ways : (i+1)*ways]. One backing array instead of a slice per
	// set keeps construction to a single allocation (controllers are built
	// per run) and the probe loop on one cache-friendly span.
	lines []rcLine
	tick  uint64

	hits, misses, writebacks *sim.Counter
}

type rcLine struct {
	super   uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

// NewRemapCache builds a sets x ways remap cache and registers its
// hit/miss/writeback counters on stats. Callers hand in an already-scoped
// view (the controller uses stats.Scope("remapCache")), so the cache itself
// registers bare names.
func NewRemapCache(sets, ways int, stats *sim.Stats) *RemapCache {
	c := &RemapCache{sets: sets, ways: ways}
	c.lines = make([]rcLine, sets*ways)
	c.hits = stats.Counter("hits")
	c.misses = stats.Counter("misses")
	c.writebacks = stats.Counter("writebacks")
	return c
}

func (c *RemapCache) set(super uint64) []rcLine {
	i := int(super%uint64(c.sets)) * c.ways
	return c.lines[i : i+c.ways]
}

// Lookup probes for super's line, updating LRU and counters.
func (c *RemapCache) Lookup(super uint64) bool {
	c.tick++
	set := c.set(super)
	for i := range set {
		if set[i].valid && set[i].super == super {
			set[i].lastUse = c.tick
			c.hits.Inc()
			return true
		}
	}
	c.misses.Inc()
	return false
}

// Insert fills super's line after a miss. It returns whether a dirty victim
// line was written back (16 B of metadata traffic to the off-chip table).
func (c *RemapCache) Insert(super uint64) (wroteBack bool) {
	c.tick++
	set := c.set(super)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].super == super {
			set[i].lastUse = c.tick
			return false
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	wroteBack = set[victim].valid && set[victim].dirty
	if wroteBack {
		c.writebacks.Inc()
	}
	set[victim] = rcLine{super: super, valid: true, lastUse: c.tick}
	return wroteBack
}

// MarkDirty records an update to super's entries. It returns true when the
// line is cached (update absorbed on chip) and false when the update must go
// straight to the off-chip table.
func (c *RemapCache) MarkDirty(super uint64) bool {
	set := c.set(super)
	for i := range set {
		if set[i].valid && set[i].super == super {
			set[i].dirty = true
			return true
		}
	}
	return false
}

// StorageBytes returns the SRAM budget of the cache: per line, eight 2-byte
// entries plus a 26-bit tag+state rounded to 4 bytes.
func (c *RemapCache) StorageBytes() int {
	return c.sets * c.ways * (8*RemapEntryBytes + 4)
}
