package experiment

import (
	"context"

	"baryon/internal/config"
	"baryon/internal/sim"
	"baryon/internal/trace"
)

// Fig11Row holds the serve-rate and bandwidth-bloat metrics of one workload
// across the cache-mode designs (Fig. 11).
type Fig11Row struct {
	Workload  string
	ServeRate map[string]float64
	Bloat     map[string]float64
}

// Fig11Designs is the analysis set of Fig. 11.
var Fig11Designs = []string{DesignUnison, DesignDICE, DesignBaryon}

// Fig11 reproduces Fig. 11: the fraction of memory accesses served by fast
// memory (left; higher is better) and the bandwidth bloat factor — fast
// memory traffic over useful LLC fill traffic (right; lower is better) —
// for representative workloads plus the geometric mean of the whole suite.
func Fig11(ctx context.Context, o Options, cfg config.Config) ([]Fig11Row, *Table, error) {
	workloads := trace.All()
	grid, err := runGrid(ctx, o, cfg, workloads, Fig11Designs)
	if err != nil {
		return nil, nil, err
	}
	var rows []Fig11Row
	t := &Table{
		Title:  "Fig 11: fast-memory serve rate (left) / bandwidth bloat factor (right)",
		Header: []string{"workload", "sr.Unison", "sr.DICE", "sr.Baryon", "bl.Unison", "bl.DICE", "bl.Baryon"},
		Notes: []string{
			"paper pr.twi: serve rates 37%/44%/77%; bloat 3.2/2.4/1.8;",
			"this reproduction matches the serve-rate ordering; Baryon's bloat runs",
			"higher than the paper's because stage/commit churn is relatively larger",
			"at the scaled-down stage size (see EXPERIMENTS.md)",
		},
	}
	serveAll := map[string][]float64{}
	bloatAll := map[string][]float64{}
	repr := map[string]bool{}
	for _, w := range trace.Representative() {
		repr[w.Name] = true
	}
	for wi, w := range workloads {
		row := Fig11Row{Workload: w.Name, ServeRate: map[string]float64{}, Bloat: map[string]float64{}}
		for di, d := range Fig11Designs {
			res := grid[wi][di]
			row.ServeRate[d] = res.FastServeRate
			row.Bloat[d] = res.BloatFactor
			serveAll[d] = append(serveAll[d], res.FastServeRate)
			bloatAll[d] = append(bloatAll[d], res.BloatFactor)
		}
		rows = append(rows, row)
		if repr[w.Name] {
			t.AddRow(w.Name,
				pct(row.ServeRate[DesignUnison]), pct(row.ServeRate[DesignDICE]), pct(row.ServeRate[DesignBaryon]),
				f2(row.Bloat[DesignUnison]), f2(row.Bloat[DesignDICE]), f2(row.Bloat[DesignBaryon]))
		}
	}
	t.AddRow("geomean(all)",
		pct(sim.GeoMean(serveAll[DesignUnison])), pct(sim.GeoMean(serveAll[DesignDICE])), pct(sim.GeoMean(serveAll[DesignBaryon])),
		f2(sim.GeoMean(bloatAll[DesignUnison])), f2(sim.GeoMean(bloatAll[DesignDICE])), f2(sim.GeoMean(bloatAll[DesignBaryon])))
	return rows, t, nil
}
