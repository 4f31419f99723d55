package experiment

import (
	"context"

	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/trace"
)

// Fig3aRow is one workload's access-type breakdown for staged (S) and
// committed (C) blocks (Fig. 3(a)).
type Fig3aRow struct {
	Workload  string
	Breakdown core.StageBreakdown
}

// Fig3a reproduces Fig. 3(a): the hit / read-miss / write-overflow split of
// accesses to just-staged (S) versus committed (C) blocks at the default
// stage size, over the SPEC-like workloads.
func Fig3a(ctx context.Context, o Options, cfg config.Config) ([]Fig3aRow, *Table, error) {
	t := &Table{
		Title:  "Fig 3(a): access breakdown, staged (S) vs committed (C) blocks",
		Header: []string{"workload", "S.hit", "S.rdMiss", "S.wrOvfl", "C.hit", "C.rdMiss", "C.wrOvfl"},
		Notes: []string{
			"paper: after commit, read misses fall to <5% and overflows to <1% on average",
		},
	}
	workloads := trace.SPEC()
	pairs := make([]Pair, len(workloads))
	for i, w := range workloads {
		pairs[i] = Pair{Cfg: cfg, Workload: w, Design: DesignBaryon}
	}
	results, err := runPairs(ctx, o, pairs)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]Fig3aRow, len(results))
	for i, res := range results {
		bd := core.Breakdown(res.Stats.Delta(res.MeasureStart))
		rows[i] = Fig3aRow{Workload: workloads[i].Name, Breakdown: bd}
		t.AddRow(workloads[i].Name, pct(bd.SHits), pct(bd.SReadMisses), pct(bd.SWriteOverflows),
			pct(bd.CHits), pct(bd.CReadMisses), pct(bd.CWriteOverflows))
	}
	return rows, t, nil
}

// Fig3bRow is one (stage size, workload) commit-state breakdown (Fig. 3(b)).
type Fig3bRow struct {
	Workload   string
	StageBytes uint64
	Breakdown  core.StageBreakdown
}

// Fig3bSizes returns the stage-area sweep sizes, scaled from the paper's
// 16/32/64/128 MB by the configuration's scale factor.
func Fig3bSizes(cfg config.Config) []uint64 {
	base := cfg.StageBytes // the "64 MB-equivalent" point
	return []uint64{base / 4, base / 2, base, base * 2}
}

// Fig3b reproduces Fig. 3(b): the committed-block breakdown across stage
// area sizes.
func Fig3b(ctx context.Context, o Options, cfg config.Config) ([]Fig3bRow, *Table, error) {
	t := &Table{
		Title:  "Fig 3(b): committed-block breakdown vs stage area size",
		Header: []string{"workload", "stage", "C.hit", "C.rdMiss", "C.wrOvfl"},
		Notes: []string{
			"stage sizes are the paper's 16/32/64/128 MB scaled to this run's memory scale",
			"paper: larger stage areas reduce post-commit misses/overflows; 64 MB suffices",
		},
	}
	var pairs []Pair
	for _, w := range trace.SPEC()[:4] {
		for _, sz := range Fig3bSizes(cfg) {
			c := cfg
			c.StageBytes = sz
			pairs = append(pairs, Pair{Cfg: c, Workload: w, Design: DesignBaryon})
		}
	}
	results, err := runPairs(ctx, o, pairs)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]Fig3bRow, len(results))
	for i, res := range results {
		p := pairs[i]
		bd := core.Breakdown(res.Stats.Delta(res.MeasureStart))
		rows[i] = Fig3bRow{Workload: p.Workload.Name, StageBytes: p.Cfg.StageBytes, Breakdown: bd}
		t.AddRow(p.Workload.Name, byteSize(p.Cfg.StageBytes), pct(bd.CHits), pct(bd.CReadMisses), pct(bd.CWriteOverflows))
	}
	return rows, t, nil
}

func byteSize(b uint64) string {
	switch {
	case b >= 1<<20:
		return f2(float64(b)/(1<<20)) + "MB"
	case b >= 1<<10:
		return f2(float64(b)/(1<<10)) + "kB"
	}
	return f2(float64(b)) + "B"
}
