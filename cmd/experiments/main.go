// Command experiments regenerates every table and figure of the paper's
// evaluation section. By default it runs everything; -only selects a single
// experiment and -quick shrinks the per-core access budget for a fast pass.
//
//	go run ./cmd/experiments            # full regeneration (~3 minutes on 2 cores)
//	go run ./cmd/experiments -quick     # fast pass
//	go run ./cmd/experiments -only fig9
//
// Every experiment runs its simulations as pairs of one experiment.Options
// batch, so -parallel sets the worker count and -bundle-dir writes one
// bundle per run for every figure alike. The runner is resilient: a pair
// that fails or panics fails only its experiment, which is reported and
// skipped while the rest complete; SIGINT, SIGTERM or -timeout stop the
// current experiment gracefully and flush everything already rendered. The
// exit status is 0 only when every selected experiment completed.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"baryon/internal/config"
	"baryon/internal/experiment"
	"baryon/internal/service"
)

func main() {
	quick := flag.Bool("quick", false, "use a reduced access budget per core")
	only := flag.String("only", "", "run a single experiment: tablei|fig3a|fig3b|fig4|fig9|fig10|fig11|fig12|fig13a-d|energy|assoc|subblock|cpack|remapcache|slowmem|llcprefetch|osvshw|ddrfidelity|taillat|resilience|cxl")
	seed := flag.Uint64("seed", 1, "simulation seed")
	common := service.RegisterFlags(flag.CommandLine,
		service.FlagTimeout|service.FlagBundleDir|service.FlagParallel,
		"overall wall-clock budget (0 = none); on expiry remaining experiments are cancelled and the exit status is non-zero")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The shared service-layer lifecycle: -timeout deadline, and the
	// -parallel worker count and -bundle-dir observer every harness batch
	// runs with.
	ctx, opts, cancel, err := common.Setup(ctx, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer cancel()

	cfg := config.Scaled()
	cfg.Seed = *seed
	if *quick {
		cfg.AccessesPerCore = 8000
	}

	experiments := []struct {
		name string
		run  harness
	}{
		{"tablei", func(context.Context, experiment.Options, config.Config) (*experiment.Table, error) {
			return experiment.TableI(), nil
		}},
		{"fig3a", tableOf(experiment.Fig3a)},
		{"fig3b", tableOf(experiment.Fig3b)},
		{"fig4", tableOf(experiment.Fig4)},
		{"fig9", tableOf(experiment.Fig9)},
		{"fig10", tableOf(experiment.Fig10)},
		{"fig11", tableOf(experiment.Fig11)},
		{"fig12", tableOf(experiment.Fig12)},
		{"fig13a", tableOf(experiment.Fig13a)},
		{"fig13b", tableOf(experiment.Fig13b)},
		{"fig13c", tableOf(experiment.Fig13c)},
		{"fig13d", tableOf(experiment.Fig13d)},
		{"energy", tableOf(experiment.Energy)},
		{"assoc", tableOf(experiment.AssocSweep)},
		{"subblock", tableOf(experiment.SubBlockSweep)},
		{"cpack", tableOf(experiment.CompressorComparison)},
		{"remapcache", tableOf(experiment.RemapCacheSweep)},
		{"slowmem", tableOf(experiment.SlowMemSweep)},
		{"llcprefetch", tableOf(experiment.PrefetchAblation)},
		{"osvshw", tableOf(experiment.OSvsHW)},
		{"ddrfidelity", tableOf(experiment.DDRFidelitySweep)},
		{"taillat", experiment.TailLatency},
		{"resilience", tableOf(experiment.Resilience)},
		{"cxl", tableOf(experiment.CXLSweep)},
	}

	// Buffer stdout and check the flush: a deferred or implicit flush would
	// silently drop tables on a full disk or broken pipe.
	out := bufio.NewWriter(os.Stdout)
	ran, failed, skipped := 0, 0, 0
	for _, e := range experiments {
		if *only != "" && e.name != *only {
			continue
		}
		if ctx.Err() != nil {
			skipped++
			continue
		}
		start := time.Now()
		table, err := e.run(ctx, opts, cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "[%s cancelled after %.1fs]\n", e.name, time.Since(start).Seconds())
				skipped++
				continue
			}
			failed++
			fmt.Fprintf(os.Stderr, "[%s FAILED after %.1fs: %s]\n",
				e.name, time.Since(start).Seconds(), firstLine(err.Error()))
			continue
		}
		table.Render(out)
		if err := out.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %.1fs]\n", e.name, time.Since(start).Seconds())
		ran++
	}
	if ran+failed+skipped == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "experiments: %d ok, %d failed, %d cancelled\n", ran, failed, skipped)
	if failed > 0 || skipped > 0 || ctx.Err() != nil {
		os.Exit(1)
	}
}

// harness is the shape every experiment runs through: a batch under ctx and
// o, rendered as one table.
type harness func(context.Context, experiment.Options, config.Config) (*experiment.Table, error)

// tableOf adapts a harness that also returns typed results, which this
// command does not print.
func tableOf[R any](h func(context.Context, experiment.Options, config.Config) (R, *experiment.Table, error)) harness {
	return func(ctx context.Context, o experiment.Options, cfg config.Config) (*experiment.Table, error) {
		_, t, err := h(ctx, o, cfg)
		return t, err
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
