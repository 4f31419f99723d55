package hybrid

import "math/bits"

// Store is the whole memory image and the only holder of content for
// every design. It holds versions, not bytes, two per line: its last core
// write's (Write) and memory's (WriteBack, called before a writeback's
// Access). Controllers see memory's only: they record only where a line
// lives (fast or slow memory, stage or committed frame), keep no copy of
// it, and read content in place here for fit trials and writeback
// decisions. Bytes are made on demand from two deterministic functions
// supplied by the workload (see internal/datagen): a block's fill runs on
// the block's first read, and a line written back since is made at its
// version when a read covers it. A block that is only ever written never
// pays for either.
//
// Bytes are a cache, records are not: the store holds the bytes of at most
// storeBudget blocks (2 MB) and keeps every touched block's record for the
// whole run. Once the budget is carved, a read of a block without bytes
// takes the slot under a round-robin hand. The slot's owner drops its bytes
// and marks every line with a non-zero version stale, so its next read
// refills it and remakes those lines; NewStore's contract makes that
// content equal to what the owner held.
//
// View rule: a slice returned by Bytes or Line is valid only until the next
// Bytes or Line call, which may recycle its slot. Callers use a view at
// once and keep none: core's fit trials and zero checks (rangeView),
// DICE's group CF and the CXL content probe.
type Store struct {
	blocks map[BlockID]*storeBlock
	fill   func(b BlockID, dst *[BlockSize]byte)
	line   func(b BlockID, line int, version uint32, dst *[CachelineSize]byte)
	// Records, core versions and block bytes are carved from slabs instead
	// of allocated one by one, cutting first-touch allocations on the
	// access hot path by the slab factor. No slab holds a pointer, so the
	// collector never scans the store's content.
	recs     *[storeRecSlab]storeBlock
	recsUsed int
	cores    []*[storeCoreSlab]lineVersions
	coreUsed uint32
	slabs    []*[storeDataSlab][BlockSize]byte
	owner    []*storeBlock // the record holding each carved slot of bytes
	budget   uint32        // most slots carved: storeBudget, lowered by hybrid's tests
	hand     uint32        // the slot recycled next once the budget is carved
}

// storeBlock is the record of one touched block: memory's version of each
// line, the lines written back since their bytes were last made (stale),
// and where the block's bytes and core versions are, while it has them.
type storeBlock struct {
	version lineVersions
	stale   uint32
	data    uint32 // 1 + the index of the block's slot of bytes; 0 while it holds none
	core    uint32 // 1 + the index of the block's core versions; 0 while no core wrote it
}

// lineVersions holds one version per line of a block; 0 is the fill's.
type lineVersions [BlockSize / CachelineSize]uint32

// Slab sizes: 2048 records (280 kB), 512 blocks' core versions (64 kB),
// carved only for blocks a core writes, and 64 blocks of bytes (128 kB).
// The budget is 1024 blocks of bytes (2 MB, 16 slabs), carved as reads
// need it.
const (
	storeRecSlab  = 2048
	storeCoreSlab = 512
	storeDataSlab = 64
	storeBudget   = 1024
)

// NewStore creates a store whose untouched blocks are produced by fill and
// whose written lines are produced by line: line(b, i, v, dst) writes line
// i of block b at write version v, and at version 0 it must equal the
// fill's bytes of that line. A nil fill yields all-zero blocks; line may be
// nil on a store that is never written.
func NewStore(fill func(b BlockID, dst *[BlockSize]byte), line func(b BlockID, line int, version uint32, dst *[CachelineSize]byte)) *Store {
	return &Store{blocks: make(map[BlockID]*storeBlock, 256), fill: fill, line: line, budget: storeBudget}
}

// block returns block b's record, carving it on first touch.
func (s *Store) block(b BlockID) *storeBlock {
	if blk, ok := s.blocks[b]; ok {
		return blk
	}
	if s.recs == nil || s.recsUsed == storeRecSlab {
		s.recs = new([storeRecSlab]storeBlock)
		s.recsUsed = 0
	}
	blk := &s.recs[s.recsUsed]
	s.recsUsed++
	s.blocks[b] = blk
	return blk
}

// WriteVersion records that the line at addr now holds its content at
// write version v, as the store's line function makes it. It is how the
// simulator writes: it makes no bytes; the line is made when a read
// covers it.
func (s *Store) WriteVersion(addr uint64, v uint32) {
	blk := s.block(BlockOf(addr))
	i := addr % BlockSize / CachelineSize
	blk.version[i] = v
	blk.stale |= 1 << i
}

// Write records a core's write to the line at addr: the line takes its
// sub-block's next version, the largest of its four lines' plus one, so
// its content changes as the paper's write-overflow analysis needs.
// Memory keeps its own version until WriteBack.
func (s *Store) Write(addr uint64) {
	blk := s.block(BlockOf(addr))
	if blk.core == 0 {
		if s.coreUsed%storeCoreSlab == 0 {
			s.cores = append(s.cores, new([storeCoreSlab]lineVersions))
		}
		s.coreUsed++
		blk.core = s.coreUsed
	}
	v := s.coreVersions(blk.core - 1)
	i := addr % BlockSize / CachelineSize
	sub := v[i&^(LinesPerSub-1):][:LinesPerSub]
	v[i] = max(sub[0], sub[1], sub[2], sub[3]) + 1
}

// WriteBack stores the version of the line at addr's last core write as
// memory's version, ahead of the line's writeback. Only lines a core wrote
// are written back.
func (s *Store) WriteBack(addr uint64) {
	blk := s.blocks[BlockOf(addr)]
	i := addr % BlockSize / CachelineSize
	if blk == nil || blk.core == 0 || s.coreVersions(blk.core - 1)[i] == 0 {
		panic("hybrid: writeback of a line no core wrote")
	}
	blk.version[i] = s.coreVersions(blk.core - 1)[i]
	blk.stale |= 1 << i
}

// coreVersions returns the core versions carved at index i.
func (s *Store) coreVersions(i uint32) *lineVersions {
	return &s.cores[i/storeCoreSlab][i%storeCoreSlab]
}

// Line returns the 64 B cacheline at addr.
func (s *Store) Line(addr uint64) []byte { return s.Bytes(LineAddr(addr), CachelineSize) }

// Bytes returns n bytes starting at addr, giving the block a slot and
// filling it on a read that finds it without bytes, and making the stale
// lines the span covers. The span must lie within one 2 kB store block,
// which holds for every sub-block range of every geometry used here
// (controller block sizes divide 2 kB). The view lasts until the next
// Bytes or Line call (see Store).
func (s *Store) Bytes(addr uint64, n int) []byte {
	off := addr % BlockSize
	end := off + uint64(n)
	if end > BlockSize {
		panic("hybrid: Bytes spans store blocks")
	}
	b := BlockOf(addr)
	blk := s.block(b)
	if blk.data == 0 {
		s.take(b, blk)
	}
	data := s.slot(blk.data - 1)
	first, last := off/CachelineSize, (end+CachelineSize-1)/CachelineSize
	mask := blk.stale & uint32(uint64(1)<<last-uint64(1)<<first)
	blk.stale &^= mask
	for ; mask != 0; mask &= mask - 1 {
		i := bits.TrailingZeros32(mask)
		s.line(b, i, blk.version[i], (*[CachelineSize]byte)(data[i*CachelineSize:]))
	}
	return data[off:end]
}

// slot returns the bytes of slot i.
func (s *Store) slot(i uint32) *[BlockSize]byte {
	return &s.slabs[i/storeDataSlab][i%storeDataSlab]
}

// take gives block b, whose record blk holds no bytes, a slot and fills it:
// a newly carved slot below the budget, else the slot under the hand, whose
// owner drops its bytes and marks its written lines stale.
func (s *Store) take(b BlockID, blk *storeBlock) {
	i := uint32(len(s.owner))
	fresh := i < s.budget
	if fresh {
		if s.owner == nil {
			s.owner = make([]*storeBlock, 0, s.budget)
		}
		if i%storeDataSlab == 0 {
			s.slabs = append(s.slabs, new([storeDataSlab][BlockSize]byte))
		}
		s.owner = append(s.owner, blk)
	} else {
		i = s.hand
		s.hand = (s.hand + 1) % s.budget
		old := s.owner[i]
		old.data, old.stale = 0, 0
		for l, v := range old.version {
			if v != 0 {
				old.stale |= 1 << l
			}
		}
		s.owner[i] = blk
	}
	blk.data = i + 1
	switch data := s.slot(i); {
	case s.fill != nil:
		s.fill(b, data)
	case !fresh: // a fresh slab slot is all zero, a recycled one is not
		*data = [BlockSize]byte{}
	}
}
