package hybrid

// This file is the first layer of the shared controller kit: a generic
// set-associative tag directory. Every memory controller in this repository
// — the Baryon core's cache/flat area and each baseline's own organisation —
// is a directory of (key, payload) ways grouped into sets, differing only in
// geometry, payload type and replacement policy. (The processor caches in
// internal/cache are LRU-only and keep their own flat tag arrays.) The
// directory keeps the replacement-relevant state (WayMeta) separate from the
// controller-specific payload so that policies can be written once, against
// WayMeta alone, and shared by every design (see replacer.go).

// WayMeta is the design-independent state of one directory way: the tag key,
// a valid bit, and the recency/age ranks replacement policies order by.
type WayMeta struct {
	// Key tags the way: a block ID, super-block ID or compression-run ID,
	// depending on the controller's indexing granularity.
	Key uint64
	// Valid marks the way as holding live data.
	Valid bool
	// LastUse is the owner's sequence number at the most recent touch
	// (LRU rank).
	LastUse uint64
	// AllocSeq is the owner's sequence number at allocation (FIFO rank,
	// used by the fully-associative configurations).
	AllocSeq uint64
}

// Dir is a set-associative tag directory with payload type P. Meta and
// payload are kept in parallel flat arrays (set-major) so a set's ways are
// contiguous in memory and policy code can work on a plain []WayMeta slice
// without per-call allocation.
type Dir[P any] struct {
	meta    []WayMeta
	payload []P
	nsets   uint64
	assoc   int
}

// NewDir builds a directory of `frames` total ways grouped into sets of
// `assoc`; a capacity smaller than one set still yields one set.
func NewDir[P any](frames uint64, assoc int) *Dir[P] {
	nsets := frames / uint64(assoc)
	if nsets == 0 {
		nsets = 1
	}
	return NewDirSets[P](nsets, assoc)
}

// NewDirSets builds a directory with an explicit (sets, ways) shape. A
// fully-associative directory is the nsets == 1 special case.
func NewDirSets[P any](nsets uint64, assoc int) *Dir[P] {
	return &Dir[P]{
		meta:    make([]WayMeta, nsets*uint64(assoc)),
		payload: make([]P, nsets*uint64(assoc)),
		nsets:   nsets,
		assoc:   assoc,
	}
}

// Sets returns the number of sets.
func (d *Dir[P]) Sets() uint64 { return d.nsets }

// SetIndex maps a key to its set.
func (d *Dir[P]) SetIndex(key uint64) int { return int(key % d.nsets) }

// SetMeta returns the metadata slice of one set, in way order. The slice
// aliases the directory; mutations through it are mutations of the
// directory.
func (d *Dir[P]) SetMeta(si int) []WayMeta {
	base := si * d.assoc
	return d.meta[base : base+d.assoc]
}

// Payload returns the payload of way w of set si.
func (d *Dir[P]) Payload(si, w int) *P { return &d.payload[si*d.assoc+w] }

// Way returns both halves of way w of set si.
func (d *Dir[P]) Way(si, w int) (*WayMeta, *P) {
	i := si*d.assoc + w
	return &d.meta[i], &d.payload[i]
}

// Lookup scans set si in way order and returns the first valid way tagged
// with key, or -1.
func (d *Dir[P]) Lookup(si int, key uint64) int {
	base := si * d.assoc
	for w := 0; w < d.assoc; w++ {
		m := &d.meta[base+w]
		if m.Valid && m.Key == key {
			return w
		}
	}
	return -1
}

// Victim asks the replacement policy for set si's victim way.
func (d *Dir[P]) Victim(si int, r Replacer) int { return r.Victim(d.SetMeta(si)) }
