// Package baselines implements the four designs the paper compares Baryon
// against (Section IV-A): a Simple DRAM cache (2 kB blocks, no compression,
// no sub-blocking), Unison Cache (2 kB blocks with 64 B sub-block footprint
// prediction and way prediction), DICE (a compressed, direct-mapped 64 B
// DRAM cache with a perfect way predictor, per the paper's optimistic
// setup), and Hybrid2 (flat-mode 256 B sub-blocking with a write-traffic
// commit policy, modelled as the paper frames it: Baryon's machinery with
// compression disabled and k = 0).
//
// The baseline controllers have no data-layout transformations: content
// stays in the canonical store, which the writer updates before Access, and
// they track presence and dirtiness for timing and traffic only. Only DICE
// reads content, for its CF check. All of them are built on the
// shared controller kit of package hybrid: the set-associative directory
// (hybrid.Dir), the replacement policies (hybrid.Replacer) and the
// migration/writeback engine with its instrumentation middleware
// (hybrid.Engine).
package baselines

import (
	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// Simple is the paper's Simple DRAM cache baseline: 2 kB blocks, 4-way
// set-associative, LRU, whole-block fills and writebacks.
type Simple struct {
	eng *hybrid.Engine

	dir   *hybrid.Dir[simpleWay]
	rep   hybrid.Replacer
	assoc int
	seq   uint64

	accesses, hits, misses, writebacks *sim.Counter
	servedFast                         *sim.Counter
	metaLatency                        uint64
}

// simpleWay is the directory payload: the Simple cache only tracks block
// dirtiness beyond the kit's tag metadata.
type simpleWay struct {
	dirty bool
}

// NewSimple builds the Simple baseline with fastBlocks block frames at the
// given associativity, replacing victims by rep (nil = LRU). tiers is the
// device topology (tier 0 = fast).
func NewSimple(fastBlocks uint64, assoc int, rep hybrid.Replacer, stats *sim.Stats, tiers []hybrid.TierSpec) *Simple {
	if rep == nil {
		rep = hybrid.LRU{}
	}
	s := &Simple{
		assoc: assoc,
		eng:   hybrid.NewEngineTiers(tiers, stats),
		dir:   hybrid.NewDir[simpleWay](fastBlocks, assoc),
		rep:   rep,
		// Remap metadata lookup (on-chip remap cache path).
		metaLatency: 3,
	}
	cstats := stats.Scope("simple")
	s.accesses = cstats.Counter("accesses")
	s.hits = cstats.Counter("hits")
	s.misses = cstats.Counter("misses")
	s.writebacks = cstats.Counter("writebacks")
	s.servedFast = cstats.Counter("servedFast")
	s.eng.InstrumentLatency(cstats)
	return s
}

// Engine returns the shared migration/writeback engine (hybrid.Controller).
func (s *Simple) Engine() *hybrid.Engine { return s.eng }

// Access implements hybrid.Controller.
func (s *Simple) Access(now uint64, addr uint64, write bool, data []byte) hybrid.Result {
	s.seq++
	s.accesses.Inc()
	block := addr / hybrid.BlockSize
	si := s.dir.SetIndex(block)

	if w := s.dir.Lookup(si, block); w >= 0 {
		meta, way := s.dir.Way(si, w)
		s.hits.Inc()
		meta.LastUse = s.seq
		if write {
			way.dirty = true
			s.eng.FillFast(now, s.frameAddr(block, w), 64)
			return hybrid.Result{Done: now}
		}
		done := s.eng.FastRead(now+s.metaLatency, s.frameAddr(block, w), 64)
		s.servedFast.Inc()
		s.eng.ObserveFast(now, done, "hit")
		return hybrid.Result{Done: done, ServedByFast: true}
	}
	s.misses.Inc()

	// Critical: the demanded line from slow memory.
	var res hybrid.Result
	if write {
		res = hybrid.Result{Done: now}
		s.eng.WriteSlowBG(now, addr, 64)
	} else {
		done := s.eng.SlowRead(now+s.metaLatency, addr, 64)
		s.eng.ObserveSlow(now, done, "miss")
		res = hybrid.Result{Done: done}
	}

	// Background: fill the whole 2 kB block, evicting the policy's victim.
	victim := s.dir.Victim(si, s.rep)
	meta, way := s.dir.Way(si, victim)
	if meta.Valid && way.dirty {
		s.writebacks.Inc()
		s.eng.WriteSlowBG(now, meta.Key*hybrid.BlockSize, hybrid.BlockSize)
	}
	s.eng.FetchSlow(now, block*hybrid.BlockSize, hybrid.BlockSize)
	s.eng.FillFast(now, s.frameAddr(block, victim), hybrid.BlockSize)
	*meta = hybrid.WayMeta{Key: block, Valid: true, LastUse: s.seq}
	*way = simpleWay{dirty: write}
	return res
}

func (s *Simple) frameAddr(block uint64, way int) uint64 {
	return (block%s.dir.Sets())*uint64(s.assoc)*hybrid.BlockSize + uint64(way)*hybrid.BlockSize
}
