package experiment

import (
	"context"
	"fmt"
	"strconv"

	"baryon/internal/config"
	"baryon/internal/mem"
	"baryon/internal/trace"
)

// CXLRow is one (design, link bandwidth) cell of the CXL experiment.
type CXLRow struct {
	Workload string
	Design   string
	// LinkBW is the expander link bandwidth in bytes per CPU cycle.
	LinkBW float64
	Cycles uint64
	// Speedup is over UnisonCache at the same link bandwidth, so the series
	// reads as "what does smarter management buy once the far tier sits
	// behind a link this narrow".
	Speedup       float64
	FastServeRate float64
	// LinkMB/InternalMB split the expander's traffic: the link always moves
	// raw lines while IBEX-style expander-side compression shrinks only the
	// internal path, so InternalMB <= LinkMB measures what the compressor
	// saved inside the device.
	LinkMB, InternalMB float64
	P99                float64
}

// CXLLinkBandwidths is the swept expander link bandwidth in bytes/cycle:
// from a starved x2-equivalent link up to one matching the DDR4 channel.
var CXLLinkBandwidths = []float64{2, 4, 8, 16}

// CXLDesigns is the comparison set behind the link: the paper's headline
// designs, with UnisonCache as the per-bandwidth baseline.
var CXLDesigns = []string{DesignUnison, DesignDICE, DesignBaryon}

// cxlSweepTiers is the swept topology: the built-ins' DRAM+NVM+CXL split
// (see cxlTiers) with the expander's link bandwidth as the free variable.
// The IBEX preset keeps expander-side compression on, so the sweep also
// shows the internal-path savings at every operating point.
func cxlSweepTiers(linkBW float64) []config.TierConfig {
	return []config.TierConfig{
		{Preset: "ddr4"},
		{Preset: "nvm", Bytes: 8 << 20},
		{Preset: "cxl-ibex", CXL: &mem.CXLParams{
			LinkLatencyCycles:     96,
			LinkBytesPerCycle:     linkBW,
			InternalBytesPerCycle: 12,
			Compression:           "best",
		}},
	}
}

// CXLSweep measures the designs' sensitivity to the expander link: for each
// link bandwidth it runs Baryon against the Unison/DICE baselines on the
// three-tier DRAM+NVM+CXL topology and reports cycles, speedup over
// UnisonCache at the same bandwidth, and the expander's link vs internal
// traffic. Runs are deterministic per cfg.Seed.
func CXLSweep(ctx context.Context, o Options, cfg config.Config) ([]CXLRow, *Table, error) {
	w := trace.Representative()[0]
	pairs := make([]Pair, 0, len(CXLDesigns)*len(CXLLinkBandwidths))
	for _, bw := range CXLLinkBandwidths {
		for _, d := range CXLDesigns {
			c := cfg
			c.Tiers = cxlSweepTiers(bw)
			pairs = append(pairs, Pair{Cfg: c, Workload: w, Design: d})
		}
	}
	results, err := runPairs(ctx, o, pairs)
	if err != nil {
		return nil, nil, err
	}

	var rows []CXLRow
	t := &Table{
		Title: "CXL: far tier behind an expander link, sweeping link bandwidth (" + w.Name + ")",
		Header: []string{"linkBpC", "design", "cycles", "speedup", "fastServeRate",
			"linkMB", "internalMB", "memLatP99"},
		Notes: []string{
			"topology: DDR4 + 8 MB NVM window + CXL-IBEX expander catch-all (96-cycle flit latency);",
			"speedups are over UnisonCache at the same link bandwidth;",
			"the link always moves raw 64B lines - internalMB < linkMB is what expander-side compression saved",
		},
	}
	for i, res := range results {
		p := pairs[i]
		bw := p.Cfg.Tiers[2].CXL.LinkBytesPerCycle
		if p.Design == DesignUnison && res.Cycles == 0 {
			return nil, nil, fmt.Errorf("experiment: cxl baseline run at %.0f B/cycle produced zero cycles", bw)
		}
		row := CXLRow{
			Workload:      p.Workload.Name,
			Design:        p.Design,
			LinkBW:        bw,
			Cycles:        res.Cycles,
			FastServeRate: res.FastServeRate,
			LinkMB:        float64(res.CXLLinkBytes) / (1 << 20),
			InternalMB:    float64(res.CXLInternalBytes) / (1 << 20),
			P99:           res.MemLat.P99,
		}
		// The Unison run at this bandwidth is the first of its triplet.
		base := results[i-i%len(CXLDesigns)]
		if res.Cycles > 0 {
			row.Speedup = float64(base.Cycles) / float64(res.Cycles)
		}
		rows = append(rows, row)
		t.AddRow(fmt.Sprintf("%.0f", row.LinkBW), row.Design,
			strconv.FormatUint(row.Cycles, 10),
			f3(row.Speedup), pct(row.FastServeRate),
			fmt.Sprintf("%.2f", row.LinkMB), fmt.Sprintf("%.2f", row.InternalMB),
			fmt.Sprintf("%.1f", row.P99))
	}
	return rows, t, nil
}
