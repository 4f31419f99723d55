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
	"baryon/internal/compress"
	"baryon/internal/config"
	"baryon/internal/hybrid"
	"baryon/internal/metadata"
	"baryon/internal/sim"
)

// occRange is one committed range occupying one physical sub-block slot of a
// fast-memory frame (Rule 2: contiguous and aligned; Rule 4: the slice is
// kept sorted and dense).
type occRange struct {
	blkOff uint8
	subOff uint8
	cf     uint8
	zero   bool
	dirty  bool
	data   []byte // cf*subBytes of uncompressed content; nil when zero
}

// fastFrame is the payload of one cache/flat-area way in the kit's tag
// directory (hybrid.Dir): the committed ranges of a single super-block
// (Rule 1 — the super-block's ID is the way's key) plus, in flat mode, the
// OS block homed at this frame. Validity and the LRU/FIFO ranks live in the
// directory's WayMeta.
type fastFrame struct {
	occ    []occRange // sorted by (blkOff, subOff), at most 8 slots
	native uint64     // flat mode: the OS block homed at this frame
}

// stageFrame is the payload of one stage-area way: the architectural stage
// tag entry, the staged range content, and the Fig. 3/4 instrumentation.
// The recency/age ranks of the two-level replacement policy live in the
// directory's WayMeta, whose Valid bit mirrors tag.Valid.
type stageFrame struct {
	tag  metadata.StageTag
	data [8][]byte // uncompressed range content per slot

	// Instrumentation for Figs. 3 and 4.
	events    []bool // per-access miss record during this stage phase
	accesses  uint32
	instStart uint64 // instruction clock at allocation (for MPKI)
}

// stageSetState is the per-set half of the stage area's two-level policy:
// the MRU-way stability counters of Eq. 1 and the ageing interval.
type stageSetState struct {
	mruMissCnt  uint32
	mruWay      int
	accSinceAge uint32
}

// remapInfo is the simulator-side remap table entry: the architectural
// 2-byte fields plus the resolved way index (which the hardware derives from
// the Pointer field; we keep it explicit to support the fully-associative
// variant whose pointer is wider).
type remapInfo struct {
	remap uint8
	cf2   uint8
	cf4   uint8
	z     bool
	way   int32 // way within the block's set; -1 when nothing is remapped
}

func (r *remapInfo) valid() bool { return r.remap != 0 || r.z }

// Controller is the Baryon memory controller.
type Controller struct {
	cfg  config.Config
	geom geometry
	comp *compress.Compressor
	rng  *sim.RNG

	eng *hybrid.Engine

	store *hybrid.Store // canonical content of every OS block

	fastDir *hybrid.Dir[fastFrame]
	fastRep hybrid.Replacer

	stageDir   *hybrid.Dir[stageFrame]
	stageState []stageSetState
	stageRep   hybrid.Replacer

	remap  []remapInfo
	rcache *metadata.RemapCache

	// cfHints remembers ranges written back to slow memory in compressed
	// form (Section III-F): bit i of cf4Hint marks quad i, bit i of cf2Hint
	// marks pair i. Indexed by OS block.
	cf2Hint, cf4Hint []uint8

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

	// rangePool recycles range content buffers by CF class (index = cf;
	// buffer length = cf*subBytes). Range buffers move between stage
	// frames and committed frames and must own their storage, so every
	// site that drops a range's last reference returns the buffer here
	// (freeRangeBuf) and rangeContent draws from the pool first.
	rangePool [5][][]byte
	// rangeSlab backs pool misses: fresh buffers are carved from these
	// per-CF slabs in rangeSlabBufs-buffer chunks.
	rangeSlab [5][]byte
	// occSlab backs first-touch occ slices: a fast frame holds at most
	// SubBlocksPerBlock ranges, so each frame gets one full-capacity slice
	// carved here and keeps it (resetOcc preserves capacity) forever.
	occSlab []occRange
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
		comp:  &compress.Compressor{Aligned: cfg.CachelineAligned, WithCPack: cfg.UseCPack},
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

	c.fastDir = hybrid.NewDirSets[fastFrame](g.sets, g.ways)
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
	c.remap = make([]remapInfo, g.osBlocks)
	for i := range c.remap {
		c.remap[i].way = -1
	}
	c.cf2Hint = make([]uint8, g.osBlocks)
	c.cf4Hint = make([]uint8, g.osBlocks)
	c.rcache = metadata.NewRemapCache(cfg.RemapCacheSets, cfg.RemapCacheWays, stats.Scope("remapCache"))

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
	// Histogram registration order is part of the report format: the stage
	// histogram precedes the engine's fastHit/slowPath pair, commit and
	// writeback follow.
	c.ctr.latStageHit = s.Histogram("lat.stageHit")
	c.ctr.latFastHit, c.ctr.latSlowPath = c.eng.InstrumentLatency(s)
	c.ctr.latCommit = s.Histogram("lat.commit")
	c.ctr.latWriteback = s.Histogram("lat.writeback")
}

// traceDecision records the controller's access-flow case for the current
// sampled request as an instant event (no-op when tracing is off).
func (c *Controller) traceDecision(now uint64, cat string) { c.eng.Decision(now, cat) }

// initFlatResidents fills every flat-area frame with its native OS block,
// fully present and uncompressed (the paper's flat mode places blocks in
// fast memory until the space is used up).
func (c *Controller) initFlatResidents() {
	for q := uint64(0); q < c.geom.sets; q++ {
		for w := 0; w < c.geom.ways; w++ {
			b := q*c.geom.superBlocks + uint64(w)
			if b >= c.geom.osBlocks {
				continue
			}
			m, f := c.fastDir.Way(int(q), w)
			m.Valid = true
			m.Key = uint64(c.superOf(b))
			f.native = b
			f.occ = nil
			c.ensureOccCap(f)
			for s := 0; s < config.SubBlocksPerBlock; s++ {
				data := c.newRangeBuf(1)
				copy(data, c.slowSub(b, s))
				f.occ = append(f.occ, occRange{
					blkOff: uint8(c.blkOff(b)), subOff: uint8(s), cf: 1, data: data,
				})
			}
			r := &c.remap[b]
			r.remap = 0xFF
			r.way = int32(w)
		}
	}
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

// slowSub returns the canonical content of sub-block s of block b.
func (c *Controller) slowSub(b uint64, s int) []byte {
	return c.store.Bytes(b*c.geom.blockBytes+uint64(s)*c.geom.subBytes, int(c.geom.subBytes))
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

// Name identifies the configuration for reports.
func (c *Controller) Name() string {
	switch {
	case c.cfg.FullyAssociative:
		return "Baryon-FA"
	case c.cfg.SubBlockBytes == 64:
		return "Baryon-64B"
	default:
		return "Baryon"
	}
}

// AddInstructions advances the retired-instruction clock used by MPKI
// statistics (called by the CPU runner).
func (c *Controller) AddInstructions(n uint64) { c.instructionsSeen += n }
