// Command baryonsim runs one workload against one hybrid-memory design and
// prints the headline metrics plus (optionally) every raw counter.
//
//	go run ./cmd/baryonsim -workload 505.mcf_r -design Baryon
//	go run ./cmd/baryonsim -workload YCSB-A -design Hybrid2 -mode flat -v
//	go run ./cmd/baryonsim -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"syscall"

	"baryon/internal/config"
	"baryon/internal/cpu"
	"baryon/internal/experiment"
	"baryon/internal/obs"
	"baryon/internal/report"
	"baryon/internal/service"
	"baryon/internal/trace"
)

func main() {
	workload := flag.String("workload", "505.mcf_r", "workload name (see -list)")
	workloadFile := flag.String("workload-file", "", "JSON file with a custom workload definition")
	traceFile := flag.String("trace-file", "", "replay a recorded trace file (see cmd/tracegen -replay)")
	jsonOut := flag.Bool("json", false, "emit the result as JSON")
	design := flag.String("design", "Baryon", "design name (built-in or loaded via -design-file)")
	mode := flag.String("mode", "cache", "cache|flat")
	accesses := flag.Int("accesses", 0, "accesses per core (0 = config default)")
	warmup := flag.Int("warmup", 0, "warmup accesses per core before measurement (0 = cold start)")
	epoch := flag.Int("epoch", 0, "collect an epoch snapshot every N accesses (0 = off)")
	epochCSV := flag.String("epoch-csv", "", "write the epoch time-series as CSV to this file (- for stdout)")
	epochJSONL := flag.String("epoch-jsonl", "", "write the epoch time-series as JSONL to this file (- for stdout)")
	metricsOut := flag.String("metrics-out", "", "write the run's final OpenMetrics exposition to this file (- for stdout)")
	bundleOut := flag.String("bundle-out", "", "write the deterministic run-report bundle (see cmd/runreport) to this file (- for stdout)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	traceOut := flag.String("trace-out", "", "write sampled request lifecycles as Chrome trace_event JSON to this file (enables tracing)")
	traceSample := flag.Uint64("trace-sample", 64, "with -trace-out, sample 1 in N requests (1 = every request)")
	debugAddr := flag.String("debug-addr", "", "serve pprof, expvar and /runz live run status on this address (e.g. localhost:6060)")
	stallTimeout := flag.Duration("stall-timeout", 0, "abort if the run makes no progress for this long (0 = off)")
	verbose := flag.Bool("v", false, "dump every raw counter")
	list := flag.Bool("list", false, "list workloads and exit")
	common := service.RegisterFlags(flag.CommandLine,
		service.FlagTimeout|service.FlagDesignFile,
		"wall-clock budget for the run (0 = none); on expiry the run stops and exits non-zero")
	flag.Parse()

	if *list {
		for _, w := range trace.All() {
			fmt.Printf("%-18s footprint=%.1fx fast, writeRatio=%.2f, util=%.2f\n",
				w.Name, w.FootprintFactor, w.WriteRatio, w.BlockUtil)
		}
		return
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	// The shared service-layer lifecycle: -timeout deadline and -design-file
	// registration.
	ctx, _, cleanup, err := common.Setup(ctx, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer cleanup()

	// A custom design from -design-file joins the registry before any name
	// validation; unless -design was set explicitly, it is also the design
	// that runs.
	if len(common.Specs) > 0 {
		designSet := false
		flag.Visit(func(f *flag.Flag) { designSet = designSet || f.Name == "design" })
		if !designSet {
			*design = common.Specs[0].Name
		}
	}

	// Validate choice flags up front so a typo fails with a usage message
	// instead of a zero-value run or a late panic.
	if !experiment.IsDesign(*design) {
		fmt.Fprintln(os.Stderr, experiment.UnknownDesignError(*design))
		os.Exit(2)
	}
	if *mode != "cache" && *mode != "flat" {
		fmt.Fprintf(os.Stderr, "unknown mode %q; valid modes: cache, flat\n", *mode)
		os.Exit(2)
	}
	if *warmup < 0 || *epoch < 0 {
		fmt.Fprintln(os.Stderr, "-warmup and -epoch must be >= 0")
		os.Exit(2)
	}
	if (*epochCSV != "" || *epochJSONL != "") && *epoch == 0 {
		fmt.Fprintln(os.Stderr, "-epoch-csv/-epoch-jsonl require -epoch > 0")
		os.Exit(2)
	}
	if *metricsOut == "-" && *bundleOut == "-" {
		fmt.Fprintln(os.Stderr, "-metrics-out and -bundle-out cannot both write to stdout")
		os.Exit(2)
	}
	if *traceSample == 0 {
		fmt.Fprintln(os.Stderr, "-trace-sample must be >= 1")
		os.Exit(2)
	}

	var w trace.Workload
	if *workloadFile != "" {
		var err error
		w, err = trace.LoadFile(*workloadFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading %s: %v\n", *workloadFile, err)
			os.Exit(2)
		}
	} else {
		var ok bool
		w, ok = trace.ByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (try -list)\n", *workload)
			os.Exit(2)
		}
	}
	cfg := config.Scaled()
	cfg.Seed = *seed
	if *accesses > 0 {
		cfg.AccessesPerCore = *accesses
	}
	cfg.WarmupAccessesPerCore = *warmup
	cfg.EpochAccesses = *epoch
	if *mode == "flat" {
		cfg.Mode = config.ModeFlat
	}
	// Validate the run's device topology (the design's overrides applied to
	// the base config) up front, so an unknown tier preset fails here with
	// the registered-preset list instead of deep in construction.
	if spec, ok := experiment.Lookup(*design); ok {
		if err := experiment.ValidateSpec(spec, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	var src trace.Source
	if *traceFile != "" {
		rep, err := trace.LoadReplayFile(*traceFile, *traceFile, w.Mix)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading trace: %v\n", err)
			os.Exit(2)
		}
		src = rep
	}

	var tr *obs.Tracer
	if *traceOut != "" {
		tr = obs.NewTracer(*traceSample, 0)
	}
	var in *obs.Introspector
	if *debugAddr != "" || *stallTimeout > 0 {
		in = &obs.Introspector{}
	}
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "debug listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug listener on http://%s/runz\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, obs.NewDebugMux(in)); err != nil {
				fmt.Fprintf(os.Stderr, "debug listener: %v\n", err)
			}
		}()
	}

	// The service layer owns the run lifecycle: validation, stall watchdog,
	// tracer/introspector attachment, cancellation.
	res, runErr := service.RunSingle(ctx, service.SingleRun{
		Cfg:           cfg,
		Workload:      w,
		Source:        src,
		Design:        *design,
		StallTimeout:  *stallTimeout,
		Tracer:        tr,
		Introspector:  in,
		StallWarnings: os.Stderr,
	})
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "run stopped early: %v (reporting partial metrics)\n", runErr)
	}
	if tr != nil {
		if err := writeTrace(*traceOut, tr); err != nil {
			fmt.Fprintf(os.Stderr, "writing trace: %v\n", err)
			os.Exit(1)
		}
		if err := tr.WriteFlameSummary(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "trace summary: %v\n", err)
			os.Exit(1)
		}
	}
	writeEpochs(res, *epochCSV, experiment.WriteEpochCSV)
	writeEpochs(res, *epochJSONL, experiment.WriteEpochJSONL)
	if *metricsOut != "" {
		if err := writeMetricsOut(*metricsOut, res, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "writing metrics: %v\n", err)
			os.Exit(1)
		}
	}
	if *bundleOut != "" {
		if runErr != nil {
			// A partial run's counters are interleaving-dependent; a bundle of
			// them would defeat the determinism contract.
			fmt.Fprintln(os.Stderr, "-bundle-out: skipping bundle for a partial run")
		} else if err := writeBundleOut(*bundleOut, *design, cfg, res); err != nil {
			fmt.Fprintf(os.Stderr, "writing bundle: %v\n", err)
			os.Exit(1)
		}
	}
	if *metricsOut == "-" || *bundleOut == "-" {
		// stdout is carrying a machine-readable export; skip the run report
		// so the stream stays parseable (pipe straight into cmd/omlint or
		// cmd/runreport).
		if runErr != nil {
			os.Exit(1)
		}
		return
	}
	if *jsonOut {
		out := map[string]any{
			"workload":      res.Workload,
			"design":        res.Design,
			"mode":          cfg.Mode.String(),
			"cycles":        res.Cycles,
			"instructions":  res.Instructions,
			"ipc":           res.IPC(),
			"fastServeRate": res.FastServeRate,
			"bloatFactor":   res.BloatFactor,
			"fastBytes":     res.FastBytes,
			"slowBytes":     res.SlowBytes,
			"energyPJ":      res.EnergyPJ,
		}
		if len(res.TierNames) > 0 {
			out["tiers"] = res.TierNames
			out["tierBytes"] = res.TierBytes
		}
		if cfg.WarmupAccessesPerCore > 0 {
			out["warmup"] = res.Warmup
			out["measured"] = res.Window
		}
		if len(res.Epochs) > 0 {
			out["epochs"] = res.Epochs
		}
		if len(res.Latency) > 0 {
			out["latency"] = res.Latency
		}
		if *verbose {
			counters := map[string]uint64{}
			for _, name := range res.Stats.Names() {
				counters[name] = res.Stats.Get(name)
			}
			out["counters"] = counters
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if runErr != nil {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("workload:        %s\n", res.Workload)
	fmt.Printf("design:          %s (%s mode)\n", res.Design, cfg.Mode)
	fmt.Printf("cycles:          %d\n", res.Cycles)
	fmt.Printf("instructions:    %d (IPC %.3f)\n", res.Instructions, res.IPC())
	fmt.Printf("fast serve rate: %.1f%%\n", 100*res.FastServeRate)
	fmt.Printf("bloat factor:    %.2f\n", res.BloatFactor)
	fmt.Printf("fast traffic:    %.1f MB\n", float64(res.FastBytes)/(1<<20))
	fmt.Printf("slow traffic:    %.1f MB\n", float64(res.SlowBytes)/(1<<20))
	for i, name := range res.TierNames {
		fmt.Printf("  tier %d %-12s %.1f MB\n", i, name+":", float64(res.TierBytes[i])/(1<<20))
	}
	fmt.Printf("memory energy:   %.2f mJ\n", res.EnergyPJ/1e9)
	if cfg.WarmupAccessesPerCore > 0 {
		fmt.Printf("warmup window:   %d accesses, IPC %.3f, fast serve %.1f%%\n",
			res.Warmup.Accesses, res.Warmup.IPC(), 100*res.Warmup.FastServeRate)
	}
	if len(res.Epochs) > 0 {
		fmt.Printf("epochs:          %d (every %d accesses)\n", len(res.Epochs), cfg.EpochAccesses)
	}
	if m, ok := res.Latency["hierarchy.lat.demand"]; ok {
		fmt.Printf("demand latency:  p50 %.0f, p99 %.0f, p99.9 %.0f, max %d cycles\n",
			m.P50, m.P99, m.P999, m.Max)
	}
	if *verbose {
		if len(res.Latency) > 0 {
			fmt.Println("\nlatency histograms (cycles):")
			names := make([]string, 0, len(res.Latency))
			for name := range res.Latency {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				m := res.Latency[name]
				fmt.Printf("  %-28s n=%-9d mean=%-8.1f p50=%-7.0f p90=%-7.0f p99=%-7.0f p99.9=%-7.0f max=%d\n",
					name, m.Count, m.Mean, m.P50, m.P90, m.P99, m.P999, m.Max)
			}
		}
		fmt.Println("\ncounters:")
		fmt.Print(res.Stats.String())
	}
	if runErr != nil {
		os.Exit(1)
	}
}

// writeMetricsOut renders the run's measurement-window registry delta as
// OpenMetrics text ("-" = stdout), labelled with the run identity — the
// end-of-run counterpart of the live /metrics endpoint.
func writeMetricsOut(path string, res cpu.Result, cfg config.Config) error {
	snap := res.Stats.Delta(res.MeasureStart)
	opts := obs.OMOptions{Labels: []obs.OMLabel{
		{Key: "design", Value: res.Design},
		{Key: "workload", Value: res.Workload},
		{Key: "seed", Value: strconv.FormatUint(cfg.Seed, 10)},
	}}
	if path == "-" {
		return obs.WriteOpenMetrics(os.Stdout, snap, opts)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteOpenMetrics(f, snap, opts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeBundleOut writes the run's deterministic report bundle ("-" =
// stdout): the canonical spec key plus the full measurement-window metric
// state, in the byte-stable shape cmd/runreport diffs.
func writeBundleOut(path, design string, cfg config.Config, res cpu.Result) error {
	b, err := service.BundleFor(design, cfg, res)
	if err != nil {
		return err
	}
	if path == "-" {
		data, err := b.MarshalCanonical()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	return report.WriteFile(path, b)
}

// writeTrace dumps the tracer's ring buffer as Chrome trace_event JSON
// (load via chrome://tracing or https://ui.perfetto.dev).
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeEpochs serialises the epoch series to path ("-" = stdout) with the
// given writer; a no-op when path is empty.
func writeEpochs(res cpu.Result, path string, write func(io.Writer, cpu.Result) error) {
	if path == "" {
		return
	}
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := write(w, res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
