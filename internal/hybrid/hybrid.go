// Package hybrid defines what every memory controller in this repository
// shares: the address geometry of the baseline hybrid memory system
// (Section III-A of the paper — 2 kB blocks, 256 B sub-blocks, 16 kB
// super-blocks, set-associative fast memory), the controller interface the
// CPU cache hierarchy drives, and the physical slow-memory backing store
// that holds canonical data bytes.
package hybrid

import "baryon/internal/sim"

// Geometry constants (Sections III-A and III-B).
const (
	CachelineSize = 64
	BlockSize     = 2048
	SubBlockSize  = 256
	SubBlocks     = BlockSize / SubBlockSize     // 8
	LinesPerSub   = SubBlockSize / CachelineSize // 4
)

// BlockID identifies a 2 kB data block in the OS-visible physical space.
type BlockID uint64

// SuperBlockID identifies a group of contiguous blocks (default 8 = 16 kB).
type SuperBlockID uint64

// BlockOf returns the block containing the physical address.
func BlockOf(addr uint64) BlockID { return BlockID(addr / BlockSize) }

// SubOf returns the sub-block index (0..7) of the address within its block.
func SubOf(addr uint64) int { return int(addr % BlockSize / SubBlockSize) }

// LineOf returns the cacheline index (0..3) within the sub-block.
func LineOf(addr uint64) int { return int(addr % SubBlockSize / CachelineSize) }

// LineAddr returns the address truncated to its cacheline.
func LineAddr(addr uint64) uint64 { return addr &^ (CachelineSize - 1) }

// SubAddr returns the base address of block b's sub-block s.
func SubAddr(b BlockID, s int) uint64 {
	return uint64(b)*BlockSize + uint64(s)*SubBlockSize
}

// Geometry carries the configurable super-block grouping (Fig. 13(b)).
type Geometry struct {
	// SuperBlockBlocks is the number of 2 kB blocks per super-block
	// (default 8, i.e. 16 kB).
	SuperBlockBlocks int
}

// DefaultGeometry returns the paper's default 8-block super-blocks.
func DefaultGeometry() Geometry { return Geometry{SuperBlockBlocks: 8} }

// SuperOf returns the super-block containing block b.
func (g Geometry) SuperOf(b BlockID) SuperBlockID {
	return SuperBlockID(uint64(b) / uint64(g.SuperBlockBlocks))
}

// BlockOffset returns b's index within its super-block (the BlkOff field).
func (g Geometry) BlockOffset(b BlockID) int {
	return int(uint64(b) % uint64(g.SuperBlockBlocks))
}

// BlockAt returns the blkOff-th block of super-block sb.
func (g Geometry) BlockAt(sb SuperBlockID, blkOff int) BlockID {
	return BlockID(uint64(sb)*uint64(g.SuperBlockBlocks) + uint64(blkOff))
}

// Result reports the outcome of one memory-controller access, consumed by
// the cache hierarchy and the statistics harness.
type Result struct {
	// Done is the cycle at which the demanded cacheline is available.
	Done uint64
	// ServedByFast is true when the demanded data came from fast memory
	// (the "fast memory serve rate" of Fig. 11).
	ServedByFast bool
	// Prefetched lists additional cacheline addresses whose data became
	// available for free (memory-to-LLC prefetch from decompression,
	// Section III-E); the hierarchy may install them in the LLC.
	Prefetched []uint64
}

// Controller is a hybrid-memory controller: it owns both memory devices and
// the canonical data plane below the processor caches.
type Controller interface {
	// Access performs a 64 B read or write at physical address addr (already
	// line-aligned) starting at cycle now. For writes, data is the new line
	// content. A read returns timing only; its content is observable
	// through DataPeeker. Result.Prefetched is read-only and may alias
	// controller-owned scratch: consume (or copy) it before the next Access
	// on the same controller.
	Access(now uint64, addr uint64, write bool, data []byte) Result
	// Stats exposes the controller's counters.
	Stats() *sim.Stats
	// Name identifies the design (for reports).
	Name() string
}

// EngineProvider is implemented by controllers built on the shared
// migration/writeback Engine. It lets run setup reach the engine for
// cross-cutting concerns — fault injection, tracing — without knowing the
// concrete controller type.
type EngineProvider interface {
	Engine() *Engine
}

// DataPeeker is implemented by controllers that can expose the current
// canonical content of a line for integrity testing (reads with no timing
// or statistics side effects).
type DataPeeker interface {
	PeekLine(addr uint64) []byte
}

// InstructionSink is implemented by controllers that keep MPKI-style
// statistics and need the retired-instruction clock.
type InstructionSink interface {
	AddInstructions(n uint64)
}
