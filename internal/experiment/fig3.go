package experiment

import (
	"context"

	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/cpu"
	"baryon/internal/trace"
)

// Fig3aRow is one workload's access-type breakdown for staged (S) and
// committed (C) blocks (Fig. 3(a)).
type Fig3aRow struct {
	Workload  string
	Breakdown core.StageBreakdown
}

// runBaryonForBreakdown runs Baryon in cache mode and extracts the
// controller's stage/commit breakdown.
func runBaryonForBreakdown(cfg config.Config, w trace.Workload) core.StageBreakdown {
	r := cpu.NewRunner(cfg, w, Factory(DesignBaryon))
	r.Run()
	return r.Controller().(*core.Controller).Breakdown()
}

// Fig3a reproduces Fig. 3(a): the hit / read-miss / write-overflow split of
// accesses to just-staged (S) versus committed (C) blocks at the default
// stage size, over the SPEC-like workloads.
func Fig3a(cfg config.Config) ([]Fig3aRow, *Table) {
	t := &Table{
		Title:  "Fig 3(a): access breakdown, staged (S) vs committed (C) blocks",
		Header: []string{"workload", "S.hit", "S.rdMiss", "S.wrOvfl", "C.hit", "C.rdMiss", "C.wrOvfl"},
		Notes: []string{
			"paper: after commit, read misses fall to <5% and overflows to <1% on average",
		},
	}
	workloads := trace.SPEC()
	rows := make([]Fig3aRow, len(workloads))
	forEach(context.Background(), len(workloads), func(i int) {
		rows[i] = Fig3aRow{Workload: workloads[i].Name, Breakdown: runBaryonForBreakdown(cfg, workloads[i])}
	})
	for _, row := range rows {
		bd := row.Breakdown
		t.AddRow(row.Workload, pct(bd.SHits), pct(bd.SReadMisses), pct(bd.SWriteOverflows),
			pct(bd.CHits), pct(bd.CReadMisses), pct(bd.CWriteOverflows))
	}
	return rows, t
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
func Fig3b(cfg config.Config) ([]Fig3bRow, *Table) {
	t := &Table{
		Title:  "Fig 3(b): committed-block breakdown vs stage area size",
		Header: []string{"workload", "stage", "C.hit", "C.rdMiss", "C.wrOvfl"},
		Notes: []string{
			"stage sizes are the paper's 16/32/64/128 MB scaled to this run's memory scale",
			"paper: larger stage areas reduce post-commit misses/overflows; 64 MB suffices",
		},
	}
	workloads := trace.SPEC()[:4]
	sizes := Fig3bSizes(cfg)
	rows := make([]Fig3bRow, len(workloads)*len(sizes))
	forEach(context.Background(), len(rows), func(i int) {
		w, sz := workloads[i/len(sizes)], sizes[i%len(sizes)]
		c := cfg
		c.StageBytes = sz
		rows[i] = Fig3bRow{Workload: w.Name, StageBytes: sz, Breakdown: runBaryonForBreakdown(c, w)}
	})
	for _, row := range rows {
		bd := row.Breakdown
		t.AddRow(row.Workload, byteSize(row.StageBytes), pct(bd.CHits), pct(bd.CReadMisses), pct(bd.CWriteOverflows))
	}
	return rows, t
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
