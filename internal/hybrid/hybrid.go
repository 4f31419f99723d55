// Package hybrid defines what every memory controller in this repository
// shares: the address geometry of the baseline hybrid memory system
// (Section III-A of the paper — 2 kB blocks, 256 B sub-blocks, 16 kB
// super-blocks, set-associative fast memory), the controller interface the
// CPU cache hierarchy drives, and the physical slow-memory backing store
// that holds canonical data bytes.
package hybrid

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

// LineAddr returns the address truncated to its cacheline.
func LineAddr(addr uint64) uint64 { return addr &^ (CachelineSize - 1) }

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
// the canonical data plane below the processor caches. It is the one
// interface the simulator drives every design through, so the designs differ
// only in what sits behind it.
type Controller interface {
	// Access performs a 64 B read or write at physical address addr (already
	// line-aligned) starting at cycle now. For writes, data is the new line
	// content. A read returns timing only; its content is observable
	// through PeekLine. Result.Prefetched is read-only and may alias
	// controller-owned scratch: consume (or copy) it before the next Access
	// on the same controller.
	Access(now uint64, addr uint64, write bool, data []byte) Result
	// Engine returns the shared migration/writeback engine the controller
	// moves data through: its tiers and devices carry the run's traffic,
	// faults and tracing.
	Engine() *Engine
	// PeekLine returns the current canonical content of the line at addr,
	// with no timing or statistics side effects (integrity checks read
	// through it).
	PeekLine(addr uint64) []byte
	// Name identifies the design (for reports).
	Name() string
}

// EngineProvider is Controller's Engine method on its own. Every Controller
// provides it; only the end-to-end benchmark module asserts it (see
// benchOnlyExports in the root exports_test.go).
type EngineProvider interface {
	Engine() *Engine
}

// InstructionSink is implemented by controllers that keep MPKI-style
// statistics and need the retired-instruction clock.
type InstructionSink interface {
	AddInstructions(n uint64)
}
