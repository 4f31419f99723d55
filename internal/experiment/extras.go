package experiment

import (
	"context"
	"fmt"

	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/trace"
)

// The experiments in this file go beyond the paper's figures: they cover
// the discussion points of Section III-F (higher associativities), the
// sub-block size trade-off beyond the two points the paper evaluates, the
// remap cache sizing claim (">90% hit rates" with 32 kB), and the
// orthogonal-compressor claim (Section III-B: "alternative schemes can also
// be used") via the optional C-Pack algorithm.

// AssocSweep sweeps the fast-memory associativity (the paper fixes 4 and
// discusses higher associativities in Section III-F; fully-associative is
// the Baryon-FA variant of Fig. 10).
func AssocSweep(ctx context.Context, o Options, cfg config.Config) ([]Fig13Row, *Table, error) {
	points := []string{"2", "4", "8", "FA"}
	return sweepTable(ctx, o, cfg,
		"Extra: fast-memory associativity (Section III-F discussion)",
		[]string{"higher associativity reduces conflicts at higher metadata cost"},
		points,
		func(c *config.Config, p string) {
			if p == "FA" {
				c.FullyAssociative = true
				return
			}
			fmt.Sscanf(p, "%d", &c.Assoc)
		},
		"4")
}

// SubBlockSweep sweeps the sub-block size: the paper evaluates 256 B
// (default) and 64 B (Baryon-64B); 128 B completes the trade-off curve.
// Geometry keeps eight sub-blocks per block, so the block size scales too.
func SubBlockSweep(ctx context.Context, o Options, cfg config.Config) ([]Fig13Row, *Table, error) {
	points := []string{"64B", "128B", "256B"}
	return sweepTable(ctx, o, cfg,
		"Extra: sub-block size trade-off (Section III-B)",
		[]string{"smaller sub-blocks reduce overfetch, larger amortise metadata;",
			"the paper picks 256 B; xz-like low-locality workloads prefer 64 B"},
		points,
		func(c *config.Config, p string) {
			switch p {
			case "64B":
				c.BlockBytes, c.SubBlockBytes = 512, 64
			case "128B":
				c.BlockBytes, c.SubBlockBytes = 1024, 128
			case "256B":
				c.BlockBytes, c.SubBlockBytes = 2048, 256
			}
		},
		"256B")
}

// CPackRow compares the default FPC+BDI pairing against adding C-Pack.
type CPackRow struct {
	Workload        string
	Speedup         float64 // with C-Pack, relative to FPC+BDI
	MeanCFDefault   float64
	MeanCFWithCPack float64
}

// CompressorComparison evaluates the orthogonal-compressor claim: adding
// C-Pack to the best-of selection should shift CFs slightly without
// changing the design's behaviour.
func CompressorComparison(ctx context.Context, o Options, cfg config.Config) ([]CPackRow, *Table, error) {
	var rows []CPackRow
	t := &Table{
		Title:  "Extra: compressor choice (FPC+BDI vs FPC+BDI+C-Pack)",
		Header: []string{"workload", "speedup", "meanCF", "meanCF+cpack"},
		Notes:  []string{"the paper: exact algorithm choices are orthogonal to the design"},
	}
	c2 := cfg
	c2.UseCPack = true
	workloads := trace.Representative()
	pairs := make([]Pair, 0, 2*len(workloads))
	for _, w := range workloads {
		pairs = append(pairs,
			Pair{Cfg: cfg, Workload: w, Design: DesignBaryon},
			Pair{Cfg: c2, Workload: w, Design: DesignBaryon})
	}
	results, err := runPairs(ctx, o, pairs)
	if err != nil {
		return nil, nil, err
	}
	for wi, w := range workloads {
		base, with := results[2*wi], results[2*wi+1]
		row := CPackRow{
			Workload:        w.Name,
			Speedup:         float64(base.Cycles) / float64(with.Cycles),
			MeanCFDefault:   core.MeanRangeCF(base.Stats.Delta(base.MeasureStart)),
			MeanCFWithCPack: core.MeanRangeCF(with.Stats.Delta(with.MeasureStart)),
		}
		rows = append(rows, row)
		t.AddRow(w.Name, f2(row.Speedup), f2(row.MeanCFDefault), f2(row.MeanCFWithCPack))
	}
	return rows, t, nil
}

// RemapCacheRow reports one remap-cache configuration's hit rate.
type RemapCacheRow struct {
	Workload string
	Sets     int
	HitRate  float64
}

// RemapCacheSweep validates the Section III-B sizing claim: the 32 kB remap
// cache (256 sets x 8 ways) achieves typical hit rates over 90%; smaller
// caches degrade.
func RemapCacheSweep(ctx context.Context, o Options, cfg config.Config) ([]RemapCacheRow, *Table, error) {
	var rows []RemapCacheRow
	t := &Table{
		Title:  "Extra: remap cache sizing (Section III-B: >90% hit rates at 32 kB)",
		Header: []string{"workload", "sets=32", "sets=64", "sets=128", "sets=256"},
	}
	setPoints := []int{32, 64, 128, 256}
	workloads := trace.Representative()
	pairs := make([]Pair, 0, len(workloads)*len(setPoints))
	for _, w := range workloads {
		for _, sets := range setPoints {
			c := cfg
			c.RemapCacheSets = sets
			pairs = append(pairs, Pair{Cfg: c, Workload: w, Design: DesignBaryon})
		}
	}
	results, err := runPairs(ctx, o, pairs)
	if err != nil {
		return nil, nil, err
	}
	for wi, w := range workloads {
		cells := []string{w.Name}
		for si, sets := range setPoints {
			res := results[wi*len(setPoints)+si]
			hr := core.RemapCacheHitRate(res.Stats.Delta(res.MeasureStart))
			rows = append(rows, RemapCacheRow{Workload: w.Name, Sets: sets, HitRate: hr})
			cells = append(cells, pct(hr))
		}
		t.AddRow(cells...)
	}
	return rows, t, nil
}

// SlowMemSweep evaluates Baryon's sensitivity to the slow-memory
// technology: the paper's Table I NVM versus Optane-like and PCM-like
// presets. The speed gap between the tiers is the resource Baryon manages,
// so a slower bottom tier should widen its absolute cycle counts while the
// mechanisms stay effective. Each point runs DDR4 over the named preset.
func SlowMemSweep(ctx context.Context, o Options, cfg config.Config) ([]Fig13Row, *Table, error) {
	points := []string{"nvm", "optane", "pcm"}
	return sweepTable(ctx, o, cfg,
		"Extra: slow-memory technology sensitivity",
		[]string{"values are speedups relative to the Table I NVM (slower devices < 1)"},
		points,
		func(c *config.Config, p string) { c.Tiers = []config.TierConfig{{Preset: "ddr4"}, {Preset: p}} },
		"nvm")
}

// PrefetchAblation toggles the memory-to-LLC prefetching of Section III-E
// (installing decompression by-products in the LLC), which the paper
// credits with up to 5% LLC hit-rate improvement.
func PrefetchAblation(ctx context.Context, o Options, cfg config.Config) ([]Fig13Row, *Table, error) {
	points := []string{"prefetch-on", "prefetch-off"}
	return sweepTable(ctx, o, cfg,
		"Extra: memory-to-LLC prefetch ablation (Section III-E)",
		[]string{"paper: bandwidth-free prefetch raises LLC hit rate by up to 5%"},
		points,
		func(c *config.Config, p string) { c.NoLLCPrefetch = p == "prefetch-off" },
		"prefetch-on")
}

// DDRFidelitySweep compares the busy-until fast-memory model against the
// protocol-level DDR4 engine (tRCD/tRP/tFAW/refresh): the shape of the
// results should be model-independent, which this sweep lets users verify.
// Each point runs the "ddr4" or "ddr4-detailed" preset over NVM.
func DDRFidelitySweep(ctx context.Context, o Options, cfg config.Config) ([]Fig13Row, *Table, error) {
	points := []string{"busy-until", "protocol"}
	return sweepTable(ctx, o, cfg,
		"Extra: fast-memory timing-model fidelity",
		[]string{"speedups relative to the busy-until model; shape should hold across models"},
		points,
		func(c *config.Config, p string) {
			fast := "ddr4"
			if p == "protocol" {
				fast = "ddr4-detailed"
			}
			c.Tiers = []config.TierConfig{{Preset: fast}, {Preset: "nvm"}}
		},
		"busy-until")
}

// OSvsHWRow compares the OS-paging baseline against the hardware designs.
type OSvsHWRow struct {
	Workload string
	Speedup  map[string]float64 // over OSPaging
}

// OSvsHW quantifies the Section II-A argument for hardware-based
// management: OS page migration adapts slowly (epochs), at coarse
// granularity (4 kB), and with software overheads, so the hardware designs
// should beat it broadly.
func OSvsHW(ctx context.Context, o Options, cfg config.Config) ([]OSvsHWRow, *Table, error) {
	designs := []string{DesignOSPaging, DesignUnison, DesignBaryon}
	var rows []OSvsHWRow
	t := &Table{
		Title:  "Extra: OS-based vs hardware-based management (Section II-A)",
		Header: []string{"workload", "OSPaging", "UnisonCache", "Baryon"},
		Notes:  []string{"speedups over the OS-paging baseline"},
	}
	workloads := trace.Representative()
	grid, err := runGrid(ctx, o, cfg, workloads, designs)
	if err != nil {
		return nil, nil, err
	}
	for wi, w := range workloads {
		row := OSvsHWRow{Workload: w.Name, Speedup: map[string]float64{}}
		var base float64
		cells := []string{w.Name}
		for di, d := range designs {
			res := grid[wi][di]
			if d == DesignOSPaging {
				base = float64(res.Cycles)
			}
			row.Speedup[d] = base / float64(res.Cycles)
			cells = append(cells, f2(row.Speedup[d]))
		}
		rows = append(rows, row)
		t.AddRow(cells...)
	}
	return rows, t, nil
}
