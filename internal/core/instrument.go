package core

import (
	"errors"

	"baryon/internal/sim"
)

// SetStagePhaseSampler installs the Fig. 4 sampler, which receives
// per-decile MPKI observations of sampled stage phases; nil (the default)
// disables sampling, which then costs one nil check per staged access. A
// controller configured without a stage area has no phases to sample, so
// installing a sampler on it is an error rather than an empty Fig. 4.
func (c *Controller) SetStagePhaseSampler(sp *StagePhaseSampler) error {
	if sp != nil && !c.cfg.UseStageArea {
		return errors.New("core: no stage area to sample (useStageArea is off)")
	}
	c.stagePhase = sp
	return nil
}

// StagePhaseSampler aggregates the miss-rate trajectory of stage phases,
// normalised to each phase's own length as in Fig. 4: bucket i covers
// relative time [i/N, (i+1)/N) of the phase.
type StagePhaseSampler struct {
	// Buckets holds one sample distribution per normalised-time decile.
	Buckets [10]sim.Sample
	// MaxPhases caps the number of sampled phases (the paper samples 1k).
	MaxPhases int
	// MinAccesses filters out phases too short to be meaningful.
	MinAccesses int

	phases int
}

// NewStagePhaseSampler mirrors the paper's methodology: 1k sampled blocks,
// phases with at least 20 accesses.
func NewStagePhaseSampler() *StagePhaseSampler {
	return &StagePhaseSampler{MaxPhases: 1000, MinAccesses: 20}
}

// Phases returns how many stage phases have been sampled.
func (sp *StagePhaseSampler) Phases() int { return sp.phases }

// Merge folds another sampler's observations into sp, letting independent
// runs sample into private samplers (one per workload, safe to run
// concurrently) that are combined deterministically afterwards.
func (sp *StagePhaseSampler) Merge(o *StagePhaseSampler) {
	for i := range sp.Buckets {
		sp.Buckets[i].Merge(&o.Buckets[i])
	}
	sp.phases += o.phases
}

// observe folds one finished phase into the deciles. events[i] records
// whether the i-th access during the phase missed; instrTotal approximates
// instructions retired across the phase.
func (sp *StagePhaseSampler) observe(events []bool, instrTotal uint64) {
	if sp.phases >= sp.MaxPhases || len(events) < sp.MinAccesses || instrTotal == 0 {
		return
	}
	sp.phases++
	n := len(events)
	instrPerBucket := float64(instrTotal) / float64(len(sp.Buckets))
	if instrPerBucket <= 0 {
		return
	}
	for bkt := range sp.Buckets {
		lo := bkt * n / len(sp.Buckets)
		hi := (bkt + 1) * n / len(sp.Buckets)
		misses := 0
		for i := lo; i < hi; i++ {
			if events[i] {
				misses++
			}
		}
		mpki := float64(misses) / (instrPerBucket / 1000)
		sp.Buckets[bkt].Observe(mpki)
	}
}

// maxStageEvents bounds the per-frame event log; phases longer than this are
// subsampled by simply truncating (the stability signal saturates well
// before).
const maxStageEvents = 4096

// recordStageEvent logs one access to a staged block for Fig. 4 sampling.
func (c *Controller) recordStageEvent(fr *stageFrame, miss bool) {
	fr.accesses++
	if c.stagePhase == nil {
		return
	}
	if len(fr.events) < maxStageEvents {
		fr.events = append(fr.events, miss)
	}
}

// emitStagePhase flushes a finished stage phase into the sampler.
func (c *Controller) emitStagePhase(fr *stageFrame) {
	if c.stagePhase == nil {
		return
	}
	c.stagePhase.observe(fr.events, c.instructionsSeen-fr.instStart)
}

// StageBreakdown summarises the access-type ratios of Fig. 3 for blocks
// resident in the stage area (S) and blocks committed to the cache/flat
// area (C).
type StageBreakdown struct {
	SHits, SReadMisses, SWriteOverflows float64
	CHits, CReadMisses, CWriteOverflows float64
}

// MeanRangeCF returns the average quantised compression factor of staged
// ranges (the Fig. 12 metric) from a run's counters, e.g. the measured
// window's res.Stats.Delta(res.MeasureStart); 0 for designs that stage no
// ranges.
func MeanRangeCF(snap sim.Snapshot) float64 {
	return sim.Ratio(snap.Get("baryon.rangeCFSum"), snap.Get("baryon.rangeFetches"))
}

// RemapCacheHitRate returns the remap cache's hit rate (the Section III-B
// sizing claim) from a run's counters; 0 for designs without a remap cache.
func RemapCacheHitRate(snap sim.Snapshot) float64 {
	hits := snap.Get("remapCache.hits")
	return sim.Ratio(hits, hits+snap.Get("remapCache.misses"))
}

// Breakdown computes the Fig. 3 ratios from a run's cumulative
// "baryon.stage.*" and "baryon.fast.*" access counters.
func Breakdown(st *sim.Stats) StageBreakdown {
	sHits, sMiss, sOvfl := st.Get("baryon.stage.hits"), st.Get("baryon.stage.subMisses"), st.Get("baryon.stage.writeOverflows")
	cHits, cMiss, cOvfl := st.Get("baryon.fast.hits"), st.Get("baryon.fast.subMisses"), st.Get("baryon.fast.writeOverflows")
	sTotal := float64(sHits + sMiss + sOvfl)
	cTotal := float64(cHits + cMiss + cOvfl)
	bd := StageBreakdown{}
	if sTotal > 0 {
		bd.SHits = float64(sHits) / sTotal
		bd.SReadMisses = float64(sMiss) / sTotal
		bd.SWriteOverflows = float64(sOvfl) / sTotal
	}
	if cTotal > 0 {
		bd.CHits = float64(cHits) / cTotal
		bd.CReadMisses = float64(cMiss) / cTotal
		bd.CWriteOverflows = float64(cOvfl) / cTotal
	}
	return bd
}
