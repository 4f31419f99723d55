package experiment

import (
	"context"

	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/trace"
)

// Fig12Variant is one compression-scheme ablation of Fig. 12.
type Fig12Variant struct {
	Name string
	Mut  func(*config.Config)
}

// Fig12Variants are the compression ablations the paper sweeps: the Z-bit
// zero-block optimisation, cacheline-aligned compression, the decompression
// latency, and (as the paper's Section III-F extra) the compressed
// fast-to-slow writeback.
func Fig12Variants() []Fig12Variant {
	return []Fig12Variant{
		{Name: "default", Mut: func(c *config.Config) {}},
		{Name: "no-zero-bit", Mut: func(c *config.Config) { c.ZeroBlockOpt = false }},
		{Name: "no-cacheline-align", Mut: func(c *config.Config) { c.CachelineAligned = false }},
		{Name: "decompress-0cy", Mut: func(c *config.Config) { c.DecompressLatency = 0 }},
		{Name: "decompress-10cy", Mut: func(c *config.Config) { c.DecompressLatency = 10 }},
		{Name: "no-compr-writeback", Mut: func(c *config.Config) { c.CompressedWriteback = false }},
	}
}

// Fig12Row is one (workload, variant) outcome.
type Fig12Row struct {
	Workload string
	Variant  string
	// Speedup is relative to the default Baryon configuration.
	Speedup float64
	// MeanRangeCF is the average quantised CF of staged ranges.
	MeanRangeCF float64
}

// Fig12 reproduces Fig. 12: the impact of the compression-scheme choices on
// performance and compression factors.
func Fig12(ctx context.Context, o Options, cfg config.Config) ([]Fig12Row, *Table, error) {
	var rows []Fig12Row
	t := &Table{
		Title:  "Fig 12: compression-scheme ablations (speedup vs default Baryon, mean range CF)",
		Header: []string{"workload", "variant", "speedup", "meanCF"},
		Notes: []string{
			"paper: removing the Z-bit lowers CF (2.00 -> 1.85) and costs up to 8% (YCSB-A);",
			"removing cacheline alignment raises CF but always loses 11-61% performance;",
			"5-cycle decompression costs <1%; compressed writeback is worth ~3%",
		},
	}
	workloads := trace.Representative()
	variants := Fig12Variants()
	pairs := make([]Pair, 0, len(workloads)*len(variants))
	for _, w := range workloads {
		for _, v := range variants {
			c := cfg
			v.Mut(&c)
			pairs = append(pairs, Pair{Cfg: c, Workload: w, Design: DesignBaryon})
		}
	}
	results, err := runPairs(ctx, o, pairs)
	if err != nil {
		return nil, nil, err
	}
	for wi, w := range workloads {
		var baseCycles float64
		for vi, v := range variants {
			res := results[wi*len(variants)+vi]
			if v.Name == "default" {
				baseCycles = float64(res.Cycles)
			}
			row := Fig12Row{
				Workload:    w.Name,
				Variant:     v.Name,
				Speedup:     baseCycles / float64(res.Cycles),
				MeanRangeCF: core.MeanRangeCF(res.Stats.Delta(res.MeasureStart)),
			}
			rows = append(rows, row)
			t.AddRow(w.Name, v.Name, f2(row.Speedup), f2(row.MeanRangeCF))
		}
	}
	return rows, t, nil
}
