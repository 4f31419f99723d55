// Command sweep runs a cartesian sweep over workloads and designs and emits
// one CSV row per run — the raw material for custom plots and regression
// tracking.
//
//	go run ./cmd/sweep -designs Baryon,DICE -workloads 505.mcf_r,pr.twi
//	go run ./cmd/sweep -mode flat -designs Hybrid2,Baryon-FA > flat.csv
//
// The sweep is resilient: a run that fails (bad design spec, panic in a
// controller) emits an error row and the rest of the grid completes; SIGINT,
// SIGTERM or -timeout cancel the remaining runs gracefully, flushing every
// completed row before exiting. The exit status is 0 only when every run
// succeeded.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"baryon/internal/config"
	"baryon/internal/experiment"
	"baryon/internal/service"
	"baryon/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// runPairs runs one seed's grid: experiment.RunPairsCtx, which the
// command's tests wrap to poison a design's pairs.
var runPairs = experiment.RunPairsCtx

// run is the whole command behind a testable seam: flags in, CSV to stdout,
// diagnostics to stderr, exit code out. Cancelling ctx (the signal handler,
// -timeout, or a test) stops new runs and flushes the partial CSV.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config.Scaled()
	designs := fs.String("designs", "Simple,UnisonCache,DICE,Baryon-64B,Baryon",
		"comma-separated design list")
	workloads := fs.String("workloads", "", "comma-separated workload list (default: all)")
	fs.TextVar(&cfg.Mode, "mode", cfg.Mode, "fast-memory `mode`: cache|flat")
	accesses := fs.Int("accesses", 0, "accesses per core (0 = config default)")
	seeds := fs.String("seeds", "1", "comma-separated seeds (rows per seed)")
	common := service.RegisterFlags(fs,
		service.FlagTimeout|service.FlagBundleDir|service.FlagDesignFiles|service.FlagParallel,
		"overall wall-clock budget (0 = none); on expiry the sweep flushes completed rows and exits non-zero")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *accesses < 0 {
		fmt.Fprintln(stderr, "-accesses must be >= 0")
		return 2
	}

	// The shared service-layer lifecycle: -timeout deadline, -parallel pool
	// size, -design-files registration, -bundle-dir observer.
	ctx, opts, cleanup, err := common.Setup(ctx, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer cleanup()

	if *accesses > 0 {
		cfg.AccessesPerCore = *accesses
	}

	var ws []trace.Workload
	if *workloads == "" {
		ws = trace.All()
	} else {
		for _, name := range strings.Split(*workloads, ",") {
			w, ok := trace.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(stderr, "unknown workload %q\n", name)
				return 2
			}
			ws = append(ws, w)
		}
	}

	// Validate the design list before any output: an unknown design would
	// otherwise waste the whole sweep on error rows.
	var ds []string
	for _, d := range strings.Split(*designs, ",") {
		d = strings.TrimSpace(d)
		if !experiment.IsDesign(d) {
			fmt.Fprintln(stderr, experiment.UnknownDesignError(d))
			return 2
		}
		ds = append(ds, d)
	}
	for _, spec := range common.Specs {
		ds = append(ds, spec.Name)
	}

	var seedList []uint64
	for _, s := range strings.Split(*seeds, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "bad seed %q\n", s)
			return 2
		}
		seedList = append(seedList, v)
	}

	out := csv.NewWriter(stdout)
	header := []string{"workload", "design", "mode", "seed", "status", "cycles",
		"instructions", "ipc", "fastServeRate", "bloatFactor",
		"fastBytes", "slowBytes", "energyPJ",
		"memLatP50", "memLatP99", "memLatMax", "tiers", "tierBytes", "error"}
	if err := out.Write(header); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var okCount, failed, cancelled int
	for _, seed := range seedList {
		cfg.Seed = seed
		// One seed's whole workload x design grid fans out across the
		// worker pool; rows come back in the serial order.
		pairs := make([]experiment.Pair, 0, len(ws)*len(ds))
		for _, w := range ws {
			for _, d := range ds {
				pairs = append(pairs, experiment.Pair{Cfg: cfg, Workload: w, Design: d})
			}
		}
		results := runPairs(ctx, opts, pairs)
		for i, pr := range results {
			res := pr.Result
			status := "ok"
			switch {
			case pr.Err == nil:
				okCount++
			case errors.Is(pr.Err, context.Canceled) || errors.Is(pr.Err, context.DeadlineExceeded):
				status = "cancelled"
				cancelled++
			default:
				status = "error"
				failed++
			}
			row := []string{
				pairs[i].Workload.Name, pairs[i].Design, cfg.Mode.String(),
				strconv.FormatUint(seed, 10),
				status,
				strconv.FormatUint(res.Cycles, 10),
				strconv.FormatUint(res.Instructions, 10),
				fmt.Sprintf("%.4f", res.IPC()),
				fmt.Sprintf("%.4f", res.FastServeRate),
				fmt.Sprintf("%.4f", res.BloatFactor),
				strconv.FormatUint(res.FastBytes, 10),
				strconv.FormatUint(res.SlowBytes, 10),
				fmt.Sprintf("%.0f", res.EnergyPJ),
				fmt.Sprintf("%.1f", res.MemLat.P50),
				fmt.Sprintf("%.1f", res.MemLat.P99),
				strconv.FormatUint(res.MemLat.Max, 10),
				strings.Join(res.TierNames, "+"),
				experiment.TierBytesCell(res.TierBytes),
				errorCell(pr.Err),
			}
			if err := out.Write(row); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			if pr.Err != nil && status == "error" {
				fmt.Fprintf(stderr, "sweep: %s/%s seed %d failed: %s\n",
					pairs[i].Workload.Name, pairs[i].Design, seed, firstLine(pr.Err.Error()))
			}
		}
		out.Flush()
		if ctx.Err() != nil {
			break
		}
	}
	out.Flush()
	if err := out.Error(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "sweep: %d ok, %d failed, %d cancelled\n", okCount, failed, cancelled)
	if failed > 0 || cancelled > 0 || ctx.Err() != nil {
		return 1
	}
	return 0
}

// errorCell renders an error as a single-line CSV cell; panics carry a
// multi-line stack we collapse to the headline.
func errorCell(err error) string {
	if err == nil {
		return ""
	}
	return firstLine(err.Error())
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
