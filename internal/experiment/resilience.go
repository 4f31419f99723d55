package experiment

import (
	"context"
	"fmt"
	"strconv"

	"baryon/internal/config"
	"baryon/internal/fault"
	"baryon/internal/sim"
	"baryon/internal/trace"
)

// ResilienceRow is one (design, raw bit error rate) cell of the resilience
// experiment.
type ResilienceRow struct {
	Workload string
	Design   string
	// BER is the injected transient raw bit error rate on the slow device.
	BER float64
	// CleanServe is the fraction of checked 64 B slow-memory lines that read
	// back without any ECC event: 1 - (corrected+uncorrectable)/checked.
	// With injection off it is 1 by definition. It degrades monotonically as
	// BER ramps — the experiment's headline series.
	CleanServe float64
	// Corrected/Uncorrectable/Remaps are the run's ECC event totals.
	Corrected, Uncorrectable, Remaps uint64
	// FastServeRate and P99 show how the degradation path feeds back into
	// the paper's headline metrics (retries consume slow-device bandwidth
	// and inflate the tail).
	FastServeRate float64
	P99           float64
}

// ResilienceBERs is the injected raw-bit-error-rate ramp.
var ResilienceBERs = []float64{0, 1e-6, 1e-5, 1e-4, 1e-3}

// ResilienceDesigns is the analysis set: the Fig. 11 comparison designs, so
// degradation lands on the same systems the serve-rate analysis uses.
var ResilienceDesigns = []string{DesignUnison, DesignDICE, DesignBaryon}

// Resilience measures graceful degradation under injected NVM read errors:
// for each design it ramps the slow device's transient raw bit error rate
// with a 2-bit-correcting ECC and reports the clean-serve rate, the ECC
// event totals, and the feedback into serve rate and tail latency. Runs are
// deterministic per (cfg.Seed, fault seed); the BER=0 column doubles as a
// fault-off control, byte-identical to a run without the fault subsystem.
func Resilience(ctx context.Context, o Options, cfg config.Config) ([]ResilienceRow, *Table, error) {
	w := trace.Representative()[0]
	pairs := make([]Pair, 0, len(ResilienceDesigns)*len(ResilienceBERs))
	for _, d := range ResilienceDesigns {
		for _, ber := range ResilienceBERs {
			c := cfg
			c.Fault.Tiers = []fault.Params{{}, {BER: ber}}
			c.Fault.ECCCorrectBits = 2
			pairs = append(pairs, Pair{Cfg: c, Workload: w, Design: d})
		}
	}
	results, err := runPairs(ctx, o, pairs)
	if err != nil {
		return nil, nil, err
	}

	var rows []ResilienceRow
	t := &Table{
		Title:  "Resilience: degradation vs slow-memory raw bit error rate (" + w.Name + ", ECC t=2)",
		Header: []string{"design", "ber", "cleanServe", "corrected", "uncorr", "remaps", "fastServeRate", "memLatP99"},
		Notes: []string{
			"cleanServe = 1 - (corrected+uncorrectable)/checked over slow-device 64B line reads;",
			"corrected errors retry with a penalty, uncorrectable errors remap the line to a spare;",
			"ber 0 is the fault-off control (identical to a run without injection)",
		},
	}
	for i, res := range results {
		p := pairs[i]
		checked := sumFaultCounter(res.Stats, "checked")
		corrected := sumFaultCounter(res.Stats, "corrected")
		uncorr := sumFaultCounter(res.Stats, "uncorrectable")
		remaps := sumFaultCounter(res.Stats, "remaps")
		clean := 1.0
		if checked > 0 {
			clean = 1 - float64(corrected+uncorr)/float64(checked)
		}
		row := ResilienceRow{
			Workload:      p.Workload.Name,
			Design:        p.Design,
			BER:           p.Cfg.Fault.Tiers[1].BER,
			CleanServe:    clean,
			Corrected:     corrected,
			Uncorrectable: uncorr,
			Remaps:        remaps,
			FastServeRate: res.FastServeRate,
			P99:           res.MemLat.P99,
		}
		rows = append(rows, row)
		t.AddRow(p.Design, fmt.Sprintf("%.0e", row.BER),
			fmt.Sprintf("%.6f", row.CleanServe),
			strconv.FormatUint(row.Corrected, 10),
			strconv.FormatUint(row.Uncorrectable, 10),
			strconv.FormatUint(row.Remaps, 10),
			pct(row.FastServeRate),
			fmt.Sprintf("%.1f", row.P99))
	}
	return rows, t, nil
}

// sumFaultCounter totals "<device>.fault.<name>" across every device of a
// run's registry (device names depend on the slow-memory preset, so rows
// match by suffix rather than hardcoding them).
func sumFaultCounter(st *sim.Stats, name string) uint64 {
	return sumCounterSuffix(st, ".fault."+name)
}
