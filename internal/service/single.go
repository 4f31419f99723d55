package service

import (
	"context"
	"fmt"
	"io"
	"time"

	"baryon/internal/config"
	"baryon/internal/cpu"
	"baryon/internal/experiment"
	"baryon/internal/obs"
	"baryon/internal/report"
	"baryon/internal/trace"
)

// SingleRun describes one instrumented foreground simulation — the shared
// core behind cmd/baryonsim: spec validation, stall-watchdog wiring, tracer
// and introspector attachment. It bypasses the result cache (a foreground
// run may replay arbitrary trace files and custom workloads the
// content-address cannot cover).
type SingleRun struct {
	Cfg      config.Config
	Workload trace.Workload
	// Source optionally replays a recorded trace instead of the workload's
	// synthetic generator.
	Source trace.Source
	Design string

	// StallTimeout aborts the run when the introspector's progress
	// heartbeats freeze for this long (0 = off).
	StallTimeout time.Duration

	// Tracer and Introspector attach live instrumentation; when
	// StallTimeout needs an introspector and none is given, one is created
	// internally.
	Tracer       *obs.Tracer
	Introspector *obs.Introspector
	// StallWarnings receives the watchdog's diagnostic line (nil = none).
	StallWarnings io.Writer
}

// RunSingle executes one foreground run under ctx, which bounds its wall
// clock, with the request's watchdog and instrumentation wired. Like
// cpu.Runner.RunCtx it returns the partial metrics alongside the error when
// the run is cut short.
func RunSingle(ctx context.Context, req SingleRun) (cpu.Result, error) {
	in := req.Introspector
	if req.StallTimeout > 0 {
		if in == nil {
			in = &obs.Introspector{}
		}
		// The watchdog watches the introspector's progress heartbeats and
		// cancels the run when they freeze: a wedged run dies with a
		// diagnostic instead of hanging forever.
		ctx2, cancel := context.WithCancel(ctx)
		defer cancel()
		ctx = ctx2
		wd := obs.NewWatchdog(in, req.StallTimeout, func(last *obs.RunStatus) {
			if req.StallWarnings != nil {
				if last != nil {
					fmt.Fprintf(req.StallWarnings, "stall watchdog: no progress for %s (stuck at %d/%d accesses, phase %s, last update %s)\n",
						req.StallTimeout, last.Accesses, last.TargetAccesses, last.Phase,
						last.UpdatedAt.Format(time.RFC3339))
				} else {
					fmt.Fprintf(req.StallWarnings, "stall watchdog: no progress for %s (no status ever published)\n", req.StallTimeout)
				}
			}
			cancel()
		})
		defer wd.Stop()
	}
	pair := experiment.Pair{
		Cfg:      req.Cfg,
		Workload: req.Workload,
		Design:   req.Design,
		Source:   req.Source,
	}
	if req.Tracer != nil || in != nil {
		pair.Obs = &experiment.RunObs{Tracer: req.Tracer, Introspector: in}
	}
	return experiment.RunPairCtx(ctx, pair)
}

// BundleFor builds the deterministic report bundle for a completed run of a
// registered design — the shared bundle-emission path of the CLIs.
func BundleFor(design string, cfg config.Config, res cpu.Result) (report.Bundle, error) {
	spec, ok := experiment.Lookup(design)
	if !ok {
		return report.Bundle{}, fmt.Errorf("design %q not registered", design)
	}
	key, err := report.Key(spec, cfg, res.Workload)
	if err != nil {
		return report.Bundle{}, err
	}
	return report.New(key, res)
}
