package experiment

import (
	"context"
	"fmt"

	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/cpu"
	"baryon/internal/sim"
	"baryon/internal/trace"
)

// Fig4Result is the stage-phase MPKI distribution of Fig. 4: one box
// (5/25/50/75/95 percentiles) per normalised-time bucket across sampled
// stage phases.
type Fig4Result struct {
	Boxes  []sim.Box
	Phases int
}

// Fig4 reproduces Fig. 4: stage-area MPKI trajectories of sampled blocks,
// normalised to each block's stage-phase length. The paper's observation —
// an order-of-magnitude MPKI drop by the mid-phase that stays low — is the
// justification for the stage area and the selective commit policy.
func Fig4(ctx context.Context, o Options, cfg config.Config) (Fig4Result, *Table, error) {
	// Each workload samples into a private sampler so the runs can execute
	// concurrently; the samplers are merged in workload order afterwards
	// (percentiles sort, so the merged boxes are order-independent anyway).
	workloads := trace.SPEC()[:4]
	samplers := make([]*core.StagePhaseSampler, len(workloads))
	err := forEachRun(ctx, o, len(workloads), func(ctx context.Context, i int) error {
		samplers[i] = core.NewStagePhaseSampler()
		r := cpu.NewRunner(cfg, workloads[i], Factory(DesignBaryon))
		ctrl := r.Controller().(*core.Controller)
		ctrl.SetInstrumentation(core.Instrumentation{StagePhase: samplers[i]})
		if _, err := r.RunCtx(ctx); err != nil {
			return fmt.Errorf("%s/%s: %w", workloads[i].Name, DesignBaryon, err)
		}
		return nil
	})
	if err != nil {
		return Fig4Result{}, nil, err
	}
	sampler := samplers[0]
	for _, s := range samplers[1:] {
		sampler.Merge(s)
	}
	agg := Fig4Result{}
	t := &Table{
		Title:  "Fig 4: stage-phase MPKI distribution vs normalised phase time",
		Header: []string{"x", "p5", "p25", "p50", "p75", "p95"},
		Notes: []string{
			"paper: MPKI drops by an order of magnitude by x=0.5 and stays low;",
			"a high p95 tail persists, motivating the selective commit policy",
		},
	}
	for i := range sampler.Buckets {
		box := sampler.Buckets[i].Box()
		agg.Boxes = append(agg.Boxes, box)
		x := (float64(i) + 0.5) / float64(len(sampler.Buckets))
		t.AddRow(f2(x), f2(box.P5), f2(box.P25), f2(box.P50), f2(box.P75), f2(box.P95))
	}
	agg.Phases = sampler.Phases()
	return agg, t, nil
}
