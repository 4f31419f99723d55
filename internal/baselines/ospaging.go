package baselines

import (
	"sort"

	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// OSPaging models the OS-based hybrid memory management the paper contrasts
// hardware designs against (Section II-A): the operating system counts page
// accesses and, at epoch boundaries, migrates the hottest 4 kB pages into
// fast memory by rewriting the page table. Its two structural handicaps are
// exactly the ones the paper names — coarse 4 kB granularity and slow,
// software-paced adaptation with per-migration overheads (page copy plus
// TLB shootdown and kernel work).
type OSPaging struct {
	eng   *hybrid.Engine
	store *hybrid.Store

	fastPages int // capacity of the fast tier in 4 kB pages

	inFast   map[uint64]bool   // page -> resident in fast memory
	hotness  map[uint64]uint32 // page -> accesses this epoch window
	dirty    map[uint64]bool
	accesses uint64

	// Software overhead: accesses issued before stallUntil pay the
	// remaining migration penalty (kernel time is not overlappable).
	stallUntil uint64

	epochLen   uint64
	migPenalty uint64 // cycles of software overhead per migrated page

	hits, misses, migrations, writebacks *sim.Counter
}

// osPageSize is the migration granularity (4 kB OS pages = 2 blocks).
const osPageSize = 4096

// Default OS-paging knobs: epochs of 50k accesses, ~3 µs of kernel+TLB
// work per migration at 3.2 GHz.
const (
	osEpochLen   = 50000
	osMigPenalty = 10000
	// osMigBudget bounds migrations per epoch, as real kernels bound
	// migration work per scan interval.
	osMigBudget = 64
)

// NewOSPaging builds the OS-managed baseline with fastBytes of fast memory.
// tiers is the device topology (tier 0 = fast).
func NewOSPaging(fastBytes uint64, store *hybrid.Store, stats *sim.Stats, tiers []hybrid.TierSpec) *OSPaging {
	o := &OSPaging{
		eng:        hybrid.NewEngineTiers(tiers, stats),
		store:      store,
		fastPages:  int(fastBytes / osPageSize),
		inFast:     make(map[uint64]bool),
		hotness:    make(map[uint64]uint32),
		dirty:      make(map[uint64]bool),
		epochLen:   osEpochLen,
		migPenalty: osMigPenalty,
	}
	cstats := stats.Scope("ospaging")
	o.hits = cstats.Counter("hits")
	o.misses = cstats.Counter("misses")
	o.migrations = cstats.Counter("migrations")
	o.writebacks = cstats.Counter("writebacks")
	o.eng.CountWritebacks(o.writebacks)
	o.eng.InstrumentLatency(cstats)
	return o
}

// Name identifies the design.
func (o *OSPaging) Name() string { return "OSPaging" }

// Engine returns the shared migration/writeback engine (hybrid.Controller).
func (o *OSPaging) Engine() *hybrid.Engine { return o.eng }

// Access implements hybrid.Controller.
func (o *OSPaging) Access(now uint64, addr uint64, write bool, data []byte) hybrid.Result {
	page := addr / osPageSize
	o.accesses++
	o.hotness[page]++

	if write {
		o.store.WriteLine(addr, data)
	}

	issue := now
	if o.stallUntil > issue {
		issue = o.stallUntil // kernel migration work blocks the core
	}

	var res hybrid.Result
	if o.inFast[page] {
		o.hits.Inc()
		if write {
			o.dirty[page] = true
			o.eng.FillFast(issue, page*osPageSize%uint64(o.fastPages*osPageSize)+addr%osPageSize, 64)
			res = hybrid.Result{Done: now}
		} else {
			done := o.eng.FastRead(issue, page*osPageSize%uint64(o.fastPages*osPageSize)+addr%osPageSize, 64)
			o.eng.ObserveFast(now, done, "pageHit")
			res = hybrid.Result{Done: done, ServedByFast: true}
		}
	} else {
		o.misses.Inc()
		if write {
			o.eng.WriteSlowBG(issue, addr, 64)
			res = hybrid.Result{Done: now}
		} else {
			done := o.eng.SlowRead(issue, addr, 64)
			o.eng.ObserveSlow(now, done, "pageMiss")
			res = hybrid.Result{Done: done}
		}
	}

	if o.accesses%o.epochLen == 0 {
		o.epoch(now)
	}
	return res
}

// epoch performs the OS's periodic migration pass: rank pages by hotness,
// bring the hottest into fast memory, evict the coldest residents.
func (o *OSPaging) epoch(now uint64) {
	type pageHeat struct {
		page uint64
		heat uint32
	}
	var all []pageHeat
	for p, h := range o.hotness {
		all = append(all, pageHeat{p, h})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].heat != all[j].heat {
			return all[i].heat > all[j].heat
		}
		return all[i].page < all[j].page // deterministic tie-break
	})

	// The OS migrates incrementally: at most osMigBudget promotions per
	// epoch (real systems bound migration work per scan interval).
	coldFirst := make([]pageHeat, 0, len(o.inFast))
	for p := range o.inFast {
		coldFirst = append(coldFirst, pageHeat{p, o.hotness[p]})
	}
	sort.Slice(coldFirst, func(i, j int) bool {
		if coldFirst[i].heat != coldFirst[j].heat {
			return coldFirst[i].heat < coldFirst[j].heat
		}
		return coldFirst[i].page < coldFirst[j].page
	})

	migrated := 0
	evictIdx := 0
	for _, cand := range all {
		if migrated >= osMigBudget {
			break
		}
		if o.inFast[cand.page] {
			continue
		}
		if len(o.inFast) >= o.fastPages {
			// Evict the coldest resident, but never for a colder candidate.
			for evictIdx < len(coldFirst) && !o.inFast[coldFirst[evictIdx].page] {
				evictIdx++
			}
			if evictIdx >= len(coldFirst) || coldFirst[evictIdx].heat >= cand.heat {
				break
			}
			victim := coldFirst[evictIdx].page
			evictIdx++
			delete(o.inFast, victim)
			if o.dirty[victim] {
				o.eng.Writeback(now, victim*osPageSize, osPageSize)
				delete(o.dirty, victim)
			}
		}
		o.inFast[cand.page] = true
		o.migrations.Inc()
		o.eng.FetchSlow(now, cand.page*osPageSize, osPageSize)
		o.eng.FillFast(now, cand.page*osPageSize%uint64(o.fastPages*osPageSize), osPageSize)
		migrated++
	}
	// Software overhead: TLB shootdowns and kernel bookkeeping serialise
	// with execution.
	if migrated > 0 {
		o.stallUntil = now + uint64(migrated)*o.migPenalty
	}
	// Decay hotness so the next epoch reflects recent behaviour.
	for p := range o.hotness {
		o.hotness[p] >>= 1
		if o.hotness[p] == 0 {
			delete(o.hotness, p)
		}
	}
}

// PeekLine implements hybrid.Controller.
func (o *OSPaging) PeekLine(addr uint64) []byte { return o.store.Line(addr) }
