// Package core implements Baryon, the paper's contribution: a hybrid memory
// controller that combines memory compression and data sub-blocking with a
// small stage area in fast memory, a dual-format metadata scheme (on-chip
// stage tag array + compact remap table with a super-block-granularity remap
// cache), two-level stage replacement, and a stability-aware selective
// commit policy. The controller supports the cache and flat schemes, a
// fully-associative variant (Baryon-FA), and the 64 B sub-blocking variant
// (Baryon-64B), plus every ablation knob the evaluation section sweeps.
package core

import (
	"baryon/internal/cache"
	"baryon/internal/compress"
	"baryon/internal/config"
	"baryon/internal/hybrid"
	"baryon/internal/metadata"
	"baryon/internal/sim"
)

// stageFrame is the payload of one stage-area way: the architectural stage
// tag entry and the Fig. 3/4 instrumentation. Range content lives in the
// store (rangeView).
// The recency/age ranks of the two-level replacement policy live in the
// directory's WayMeta, whose Valid bit mirrors tag.Valid.
type stageFrame struct {
	tag metadata.StageTag

	// Instrumentation for Figs. 3 and 4.
	events    []bool // per-access miss record during this stage phase
	instStart uint64 // instruction clock at allocation (for MPKI)
}

// stageSetState is the per-set half of the stage area's two-level policy:
// the MRU-way stability counters of Eq. 1 and the ageing interval.
type stageSetState struct {
	mruMissCnt  uint32
	mruWay      int
	accSinceAge uint32
}

// Controller is the Baryon memory controller.
type Controller struct {
	cfg  config.Config
	geom geometry
	comp *compress.Compressor
	rng  *sim.RNG

	eng *hybrid.Engine

	store *hybrid.Store // the whole memory image: no range keeps a copy

	// fastDir tags the cache/flat-area ways with the super-block they hold
	// (Rule 1) and keeps their LRU/FIFO ranks. A way has no payload: what
	// it holds is the remap entries that point at it, and a flat frame's
	// native block is the one initFlatResidents homes there (nativeOf).
	fastDir *hybrid.Dir[struct{}]
	fastRep hybrid.Replacer

	stageDir   *hybrid.Dir[stageFrame]
	stageState []stageSetState
	stageRep   hybrid.Replacer

	// remap is the committed area's only layout record: Fig. 5(b)'s entry
	// per OS block. A committed range's slot is the prefix-sum decode over
	// its super-block's entries (metadata.SlotPosition), and a frame holds
	// the ranges of the entries pointing at it, in block then sub-block
	// order (Rule 4). Pointer is the full way index, wider than the
	// hardware's log2(assoc) bits, so that Baryon-FA's single set works.
	remap []metadata.RemapEntry

	// remapCache is the on-chip remap cache of Table I, one line per
	// super-block at key remapKey(super); a dirty victim is written back
	// to the table in fast memory.
	remapCache      *cache.Cache
	remapWritebacks *sim.Counter

	// dirty is the simulator-side dirty state Fig. 5(b) has no bits for:
	// bit s of dirty[b] marks committed sub-block s of block b as written
	// since it was committed, set and cleared a whole range at a time.
	dirty []uint8

	// cfHint remembers ranges written back to slow memory in compressed
	// form (Section III-F), at the bits hintBit names: bits 0-3 mark pairs,
	// bits 4-5 quads. Indexed by OS block. It is not the entry's CF bits: a
	// hint outlives the entry it came from (an evicted frame's writebacks
	// set hints before its entries clear, and a Z commit keeps them).
	cfHint []uint8

	seq uint64 // monotonic sequence for LRU/FIFO ordering

	stats *sim.Stats
	ctr   counters

	// stagePhase, when set, samples stage-phase MPKI for Fig. 4.
	stagePhase *StagePhaseSampler

	// instructionsSeen approximates retired instructions for MPKI-based
	// statistics; the runner advances it via AddInstructions.
	instructionsSeen uint64

	// deviceRegion bases (fast device address space).
	stageBase, tableBase uint64

	// prefetchScratch backs Result.Prefetched, reused across Access calls
	// to keep the hot path allocation-free; it is valid until the next
	// Access, the contract hybrid.Result documents.
	prefetchScratch []uint64
}

// geometry captures the per-variant sizes (Baryon vs Baryon-64B).
type geometry struct {
	blockBytes  uint64
	subBytes    uint64
	linesPerSub int
	superBlocks uint64 // blocks per super-block
	sets        uint64
	ways        int
	stageSets   uint64
	stageWays   int
	osBlocks    uint64
	fastBlocks  uint64
}

type counters struct {
	accesses, reads, writes             *sim.Counter
	servedFast, servedSlow, servedZero  *sim.Counter
	stageHits, stageSubMiss, blockMiss  *sim.Counter
	stageWriteOverflow, fastOverflow    *sim.Counter
	fastHits, fastSubMiss               *sim.Counter
	commits, evictsToSlow, commitAborts *sim.Counter
	subReplacements, blockReplacements  *sim.Counter
	decompressions, rangeFetches        *sim.Counter
	rangeCFSum                          *sim.Counter
	swapSpread, swapThreeWay            *sim.Counter
	resortRewrites                      *sim.Counter
	compressedWritebacks                *sim.Counter
	multiFrameSupers                    *sim.Counter

	// Per-access-class latency histograms (read critical path) and the
	// background commit/writeback stall distributions.
	latStageHit, latFastHit, latSlowPath *sim.Histogram
	latCommit, latWriteback              *sim.Histogram
}

// New builds a Baryon controller over the canonical store. The store must
// outlive the controller; stats receives all counters.
func New(cfg config.Config, store *hybrid.Store, stats *sim.Stats) *Controller {
	c := &Controller{
		cfg:   cfg,
		comp:  compress.New(cfg.CachelineAligned),
		rng:   sim.NewRNG(cfg.Seed ^ 0xBA51C0DE),
		store: store,
		stats: stats,
	}
	g := &c.geom
	g.blockBytes = cfg.BlockBytes
	g.subBytes = cfg.BlockBytes / config.SubBlocksPerBlock
	g.linesPerSub = int(g.subBytes / hybrid.CachelineSize)
	g.superBlocks = uint64(cfg.SuperBlockBlocks)
	g.sets = cfg.Sets()
	g.ways = cfg.WaysPerSet()
	g.stageSets = cfg.StageSets()
	g.stageWays = 4
	g.osBlocks = cfg.OSBlocks()
	g.fastBlocks = cfg.FastBlocks()

	// The tier list comes from the config (empty Tiers is DDR4 over NVM).
	// A resolve error here is a programming error: user-facing paths run
	// Config.Validate first.
	specs, err := cfg.TierSpecs()
	if err != nil {
		panic(err)
	}
	c.eng = hybrid.NewEngineTiers(specs, stats)

	c.fastDir = hybrid.NewDirSets[struct{}](g.sets, g.ways)
	c.fastRep = hybrid.Replacer(hybrid.LRU{})
	if cfg.FullyAssociative {
		c.fastRep = hybrid.FIFO{}
	}
	c.stageDir = hybrid.NewDirSets[stageFrame](g.stageSets, g.stageWays)
	c.stageRep = hybrid.TwoLevelBlock{}
	c.stageState = make([]stageSetState, g.stageSets)
	for i := range c.stageState {
		c.stageState[i].mruWay = -1
	}
	c.remap = make([]metadata.RemapEntry, g.osBlocks)
	c.dirty = make([]uint8, g.osBlocks)
	c.cfHint = make([]uint8, g.osBlocks)
	c.remapCache = cache.New(cache.Config{Name: "remapCache", Sets: cfg.RemapCacheSets, Ways: cfg.RemapCacheWays}, stats)
	c.remapWritebacks = stats.Scope("remapCache").Counter("writebacks")

	c.stageBase = g.fastBlocks * g.blockBytes
	c.tableBase = c.stageBase + cfg.StageBlocks()*g.blockBytes

	c.initCounters()
	if cfg.Mode == config.ModeFlat {
		c.initFlatResidents()
	}
	return c
}

func (c *Controller) initCounters() {
	s := c.stats.Scope("baryon")
	c.ctr = counters{
		accesses:             s.Counter("accesses"),
		reads:                s.Counter("reads"),
		writes:               s.Counter("writes"),
		servedFast:           s.Counter("servedFast"),
		servedSlow:           s.Counter("servedSlow"),
		servedZero:           s.Counter("servedZero"),
		stageHits:            s.Counter("stage.hits"),
		stageSubMiss:         s.Counter("stage.subMisses"),
		blockMiss:            s.Counter("blockMisses"),
		stageWriteOverflow:   s.Counter("stage.writeOverflows"),
		fastOverflow:         s.Counter("fast.writeOverflows"),
		fastHits:             s.Counter("fast.hits"),
		fastSubMiss:          s.Counter("fast.subMisses"),
		commits:              s.Counter("commits"),
		evictsToSlow:         s.Counter("evictsToSlow"),
		commitAborts:         s.Counter("commitAborts"),
		subReplacements:      s.Counter("subReplacements"),
		blockReplacements:    s.Counter("blockReplacements"),
		decompressions:       s.Counter("decompressions"),
		rangeFetches:         s.Counter("rangeFetches"),
		rangeCFSum:           s.Counter("rangeCFSum"),
		swapSpread:           s.Counter("swap.spread"),
		swapThreeWay:         s.Counter("swap.threeWay"),
		resortRewrites:       s.Counter("resortRewrites"),
		compressedWritebacks: s.Counter("compressedWritebacks"),
		multiFrameSupers:     s.Counter("multiFrameSupers"),
	}
	// The registry keeps no histogram order (every reader sorts the names),
	// so the engine's fastHit/slowPath pair may register among these.
	c.ctr.latStageHit = s.Histogram("lat.stageHit")
	c.ctr.latFastHit, c.ctr.latSlowPath = c.eng.InstrumentLatency(s)
	c.ctr.latCommit = s.Histogram("lat.commit")
	c.ctr.latWriteback = s.Histogram("lat.writeback")
}

// initFlatResidents fills every flat-area frame with its native OS block,
// fully present and uncompressed (the paper's flat mode places blocks in
// fast memory until the space is used up).
func (c *Controller) initFlatResidents() {
	for q := 0; q < int(c.geom.sets); q++ {
		for w := 0; w < c.geom.ways; w++ {
			if b, ok := c.nativeOf(q, w); ok {
				c.fastDir.SetMeta(q)[w] = hybrid.WayMeta{Key: uint64(c.superOf(b)), Valid: true}
				c.remap[b] = metadata.RemapEntry{Remap: 0xFF, Pointer: uint32(w)}
			}
		}
	}
}

// nativeOf returns the OS block homed at flat-area frame (si, way), and
// false in cache mode or when the home lies past the last OS block. Way w
// of set q homes block q*superBlocks+w: in set-associative mode a block of
// super-block q, which maps to set q (config.Validate keeps flat
// super-blocks at least as large as a set), and block w in Baryon-FA's
// single set.
func (c *Controller) nativeOf(si, way int) (uint64, bool) {
	b := uint64(si)*c.geom.superBlocks + uint64(way)
	return b, c.cfg.Mode == config.ModeFlat && b < c.geom.osBlocks
}

// --- geometry helpers -------------------------------------------------

func (c *Controller) blockOf(addr uint64) uint64 { return addr / c.geom.blockBytes }
func (c *Controller) subOf(addr uint64) int {
	return int(addr % c.geom.blockBytes / c.geom.subBytes)
}
func (c *Controller) superOf(b uint64) hybrid.SuperBlockID {
	return hybrid.SuperBlockID(b / c.geom.superBlocks)
}
func (c *Controller) blkOff(b uint64) int { return int(b % c.geom.superBlocks) }
func (c *Controller) setIdx(super hybrid.SuperBlockID) int {
	return int(uint64(super) % c.geom.sets)
}
func (c *Controller) stageSetIdx(super hybrid.SuperBlockID) int {
	return int(uint64(super) % c.geom.stageSets)
}
func (c *Controller) blockID(super hybrid.SuperBlockID, blkOff uint8) uint64 {
	return uint64(super)*c.geom.superBlocks + uint64(blkOff)
}

// superEntries returns the remap entries of super's blocks in block order,
// clipped at the last OS block: the slice the slot decode walks, indexed
// by blkOff.
func (c *Controller) superEntries(super hybrid.SuperBlockID) []metadata.RemapEntry {
	base := uint64(super) * c.geom.superBlocks
	return c.remap[base:min(base+c.geom.superBlocks, c.geom.osBlocks)]
}

// slowAddr maps block b to a slow-device address for timing purposes.
func (c *Controller) slowAddr(b uint64, s int) uint64 {
	return b*c.geom.blockBytes + uint64(s)*c.geom.subBytes
}

// frameAddr maps (set, way, slot) to a fast-device address.
func (c *Controller) frameAddr(setIdx, way, slot int) uint64 {
	frame := uint64(setIdx)*uint64(c.geom.ways) + uint64(way)
	return frame*c.geom.blockBytes + uint64(slot)*c.geom.subBytes
}

// stageFrameAddr maps (stage set, way, slot) to a fast-device address in the
// stage region.
func (c *Controller) stageFrameAddr(setIdx, way, slot int) uint64 {
	frame := uint64(setIdx)*uint64(c.geom.stageWays) + uint64(way)
	return c.stageBase + frame*c.geom.blockBytes + uint64(slot)*c.geom.subBytes
}

// Engine returns the shared migration/writeback engine (hybrid.Controller).
func (c *Controller) Engine() *hybrid.Engine { return c.eng }

// AddInstructions advances the retired-instruction clock used by MPKI
// statistics (called by the CPU runner).
func (c *Controller) AddInstructions(n uint64) { c.instructionsSeen += n }
