package experiment

import (
	"context"
	"fmt"

	"baryon/internal/config"
	"baryon/internal/trace"
)

// TailLatencyDesigns is the design set of the tail-latency comparison: the
// two strongest cache-mode baselines against Baryon.
var TailLatencyDesigns = []string{DesignUnison, DesignDICE, DesignBaryon}

// TailLatency reports the demand completion-latency distribution per design
// on the representative workloads: the means the paper's figures report hide
// the bimodality Baryon's mechanisms create (stage hits vs. slow-path NVM
// reads), which the percentile spread makes visible. All values are cycles,
// measured over the post-warmup window via histogram window deltas.
func TailLatency(ctx context.Context, o Options, cfg config.Config) (*Table, error) {
	t := &Table{
		Title:  "Tail latency: demand completion latency per design (cycles)",
		Header: []string{"workload", "design", "mean", "p50", "p90", "p99", "p99.9", "max"},
		Notes: []string{
			"whole-plane latency (cache hits included); percentile estimates carry",
			"the 12.5% relative error of the log-linear histogram buckets, max is exact;",
			"see EXPERIMENTS.md \"Tail-latency methodology\"",
		},
	}
	workloads := trace.Representative()
	grid, err := runGrid(ctx, o, cfg, workloads, TailLatencyDesigns)
	if err != nil {
		return nil, err
	}
	for wi, w := range workloads {
		for di, d := range TailLatencyDesigns {
			m := grid[wi][di].MemLat
			t.AddRow(w.Name, d,
				fmt.Sprintf("%.1f", m.Mean),
				fmt.Sprintf("%.0f", m.P50),
				fmt.Sprintf("%.0f", m.P90),
				fmt.Sprintf("%.0f", m.P99),
				fmt.Sprintf("%.0f", m.P999),
				fmt.Sprintf("%d", m.Max))
		}
	}
	return t, nil
}
