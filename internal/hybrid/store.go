package hybrid

import "math/bits"

// Store is the whole memory image and the only holder of content for
// every design. It holds versions, not bytes: the writer records a written
// line's version before it calls Access (see Controller), and controllers
// record only where a line lives (fast or slow memory, stage or committed
// frame), keep no copy of it, and read content in place here for fit
// trials and writeback decisions. Bytes are made on demand from two
// deterministic functions supplied by the workload (see internal/datagen):
// a block's fill runs on the block's first read, and a line written since
// is made at its version when a read covers it. A block that is only ever
// written never pays for either.
type Store struct {
	blocks map[BlockID]*storeBlock
	fill   func(b BlockID, dst *[BlockSize]byte)
	line   func(b BlockID, line int, version uint32, dst *[CachelineSize]byte)
	// Records and block bytes are carved from slabs instead of allocated
	// one by one, cutting first-touch allocations on the access hot path by
	// the slab factor. Neither slab holds a pointer, so the collector never
	// scans the store's content.
	recs     *[storeRecSlab]storeBlock
	recsUsed int
	slabs    []*[storeDataSlab][BlockSize]byte
	carved   uint32 // blocks of bytes carved so far
}

// storeBlock is the record of one touched block: the write version of
// each line, the lines written since their bytes were last made (stale),
// and where the block's bytes are, once its first read carved them.
type storeBlock struct {
	version [BlockSize / CachelineSize]uint32
	stale   uint32
	data    uint32 // 1 + the index of the block's bytes in the slabs; 0 until its first read
}

// Slab sizes: 2048 records (272 kB) and 64 blocks of bytes (128 kB).
const (
	storeRecSlab  = 2048
	storeDataSlab = 64
)

// NewStore creates a store whose untouched blocks are produced by fill and
// whose written lines are produced by line: line(b, i, v, dst) writes line
// i of block b at write version v, and at version 0 it must equal the
// fill's bytes of that line. A nil fill yields all-zero blocks; line may be
// nil on a store that is never written.
func NewStore(fill func(b BlockID, dst *[BlockSize]byte), line func(b BlockID, line int, version uint32, dst *[CachelineSize]byte)) *Store {
	return &Store{blocks: make(map[BlockID]*storeBlock, 256), fill: fill, line: line}
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

// Line returns the 64 B cacheline at addr.
func (s *Store) Line(addr uint64) []byte { return s.Bytes(LineAddr(addr), CachelineSize) }

// Bytes returns n bytes starting at addr, carving and filling the block's
// bytes on its first read and making the stale lines the span covers. The
// span must lie within one 2 kB store block, which holds for every
// sub-block range of every geometry used here (controller block sizes
// divide 2 kB).
func (s *Store) Bytes(addr uint64, n int) []byte {
	off := addr % BlockSize
	end := off + uint64(n)
	if end > BlockSize {
		panic("hybrid: Bytes spans store blocks")
	}
	b := BlockOf(addr)
	blk := s.block(b)
	fresh := blk.data == 0
	if fresh {
		if s.carved%storeDataSlab == 0 {
			s.slabs = append(s.slabs, new([storeDataSlab][BlockSize]byte))
		}
		s.carved++
		blk.data = s.carved
	}
	data := &s.slabs[(blk.data-1)/storeDataSlab][(blk.data-1)%storeDataSlab]
	if fresh && s.fill != nil { // a fresh slab block is all zero
		s.fill(b, data)
	}
	first, last := off/CachelineSize, (end+CachelineSize-1)/CachelineSize
	mask := blk.stale & uint32(uint64(1)<<last-uint64(1)<<first)
	blk.stale &^= mask
	for ; mask != 0; mask &= mask - 1 {
		i := bits.TrailingZeros32(mask)
		s.line(b, i, blk.version[i], (*[CachelineSize]byte)(data[i*CachelineSize:]))
	}
	return data[off:end]
}
