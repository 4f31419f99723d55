// Command baryonsim runs one workload against one hybrid-memory design and
// prints the headline metrics plus (optionally) every raw counter.
//
//	go run ./cmd/baryonsim -workload 505.mcf_r -design Baryon
//	go run ./cmd/baryonsim -workload YCSB-A -design Hybrid2 -mode flat -v
//	go run ./cmd/baryonsim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"baryon/internal/config"
	"baryon/internal/experiment"
	"baryon/internal/obs"
	"baryon/internal/report"
	"baryon/internal/service"
	"baryon/internal/sim"
	"baryon/internal/trace"
)

func main() {
	workload := flag.String("workload", "505.mcf_r", "workload name (see -list)")
	workloadFile := flag.String("workload-file", "", "JSON file with a custom workload definition")
	traceFile := flag.String("trace-file", "", "replay a recorded trace file (see cmd/tracegen -replay)")
	design := flag.String("design", "Baryon", "design name (built-in or loaded via -design-file)")
	cfg := config.Scaled()
	flag.TextVar(&cfg.Mode, "mode", cfg.Mode, "fast-memory `mode`: cache|flat")
	accesses := flag.Int("accesses", 0, "accesses per core (0 = config default)")
	warmup := flag.Int("warmup", 0, "warmup accesses per core before measurement (0 = cold start)")
	epoch := flag.Int("epoch", 0, "collect an epoch snapshot every N accesses (0 = off)")
	epochCSV := flag.String("epoch-csv", "", "write the epoch time-series as CSV to this file (- for stdout)")
	metricsOut := flag.String("metrics-out", "", "write the run's final OpenMetrics exposition to this file (- for stdout)")
	bundleOut := flag.String("bundle-out", "", "write the deterministic run-report bundle (see cmd/runreport) to this file (- for stdout)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	traceOut := flag.String("trace-out", "", "write sampled request lifecycles as Chrome trace_event JSON to this file (- for stdout; enables tracing)")
	traceSample := flag.Uint64("trace-sample", 64, "with -trace-out, sample 1 in N requests (1 = every request)")
	debugAddr := flag.String("debug-addr", "", "serve pprof, expvar and /runz live run status on this address (e.g. localhost:6060)")
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
	if *accesses < 0 || *warmup < 0 || *epoch < 0 {
		fmt.Fprintln(os.Stderr, "-accesses, -warmup and -epoch must be >= 0")
		os.Exit(2)
	}
	if *epochCSV != "" && *epoch == 0 {
		fmt.Fprintln(os.Stderr, "-epoch-csv requires -epoch > 0")
		os.Exit(2)
	}
	// Each export may go to stdout ("-"), but only one at a time: a stream
	// mixing two formats parses as neither.
	var toStdout []string
	for _, e := range []struct{ flag, path string }{
		{"-trace-out", *traceOut}, {"-epoch-csv", *epochCSV},
		{"-metrics-out", *metricsOut}, {"-bundle-out", *bundleOut},
	} {
		if e.path == "-" {
			toStdout = append(toStdout, e.flag)
		}
	}
	if len(toStdout) > 1 {
		fmt.Fprintf(os.Stderr, "only one export may write to stdout (-), not %s\n", strings.Join(toStdout, " and "))
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
	cfg.Seed = *seed
	if *accesses > 0 {
		cfg.AccessesPerCore = *accesses
	}
	cfg.WarmupAccessesPerCore = *warmup
	cfg.EpochAccesses = *epoch
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
		rep, err := trace.LoadReplayFile(*traceFile, w)
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
	if *debugAddr != "" {
		in = &obs.Introspector{}
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

	pair := experiment.Pair{Cfg: cfg, Workload: w, Design: *design, Source: src}
	if tr != nil || in != nil {
		pair.Obs = &experiment.RunObs{Tracer: tr, Introspector: in}
	}
	res, runErr := experiment.RunPairCtx(ctx, pair)
	if runErr != nil {
		if res.Stats == nil {
			// Stopped before the first access: no partial run to report.
			fmt.Fprintf(os.Stderr, "run stopped before it started: %v\n", runErr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "run stopped early: %v (reporting partial metrics)\n", runErr)
	}
	// Every section below reports the measurement window (warmup excluded),
	// as the headline and the bundle do.
	measured := res.Stats.Delta(res.MeasureStart)
	latency := map[string]sim.HistSummary{}
	for _, name := range measured.HistNames() {
		if h, _ := measured.Hist(name); h.Count() > 0 {
			latency[name] = h.Summary()
		}
	}
	if tr != nil {
		exitOn("trace", writeOut(*traceOut, tr.WriteChromeJSON))
		exitOn("trace summary", tr.WriteFlameSummary(os.Stderr))
	}
	if *epochCSV != "" {
		exitOn("epoch CSV", writeOut(*epochCSV, func(w io.Writer) error { return experiment.WriteEpochCSV(w, res) }))
	}
	if *metricsOut != "" {
		// The measurement-window registry delta, labelled with the run
		// identity: the end-of-run counterpart of the live /metrics endpoint.
		opts := obs.OMOptions{Labels: []obs.OMLabel{
			{Key: "design", Value: res.Design},
			{Key: "workload", Value: res.Workload},
			{Key: "seed", Value: strconv.FormatUint(cfg.Seed, 10)},
		}}
		exitOn("metrics", writeOut(*metricsOut, func(w io.Writer) error { return obs.WriteOpenMetrics(w, measured, opts) }))
	}
	if *bundleOut != "" {
		if runErr != nil {
			// A partial run's counters are interleaving-dependent; a bundle of
			// them would defeat the determinism contract.
			fmt.Fprintln(os.Stderr, "-bundle-out: skipping bundle for a partial run")
		} else {
			b, err := report.PairBundle(pair, res)
			exitOn("bundle", err)
			data, err := b.MarshalCanonical()
			exitOn("bundle", err)
			exitOn("bundle", writeOut(*bundleOut, func(w io.Writer) error { _, err := w.Write(data); return err }))
		}
	}
	if toStdout != nil {
		// stdout is carrying a machine-readable export; skip the run report
		// so the stream stays parseable (pipe straight into cmd/omlint,
		// cmd/runreport or a CSV reader).
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
	if m, ok := latency["hierarchy.lat.demand"]; ok {
		fmt.Printf("demand latency:  p50 %.0f, p99 %.0f, p99.9 %.0f, max %d cycles\n",
			m.P50, m.P99, m.P999, m.Max)
	}
	if *verbose {
		if len(latency) > 0 {
			fmt.Println("\nlatency histograms (cycles):")
			for _, name := range measured.HistNames() {
				m, ok := latency[name]
				if !ok {
					continue
				}
				fmt.Printf("  %-28s n=%-9d mean=%-8.1f p50=%-7.0f p90=%-7.0f p99=%-7.0f p99.9=%-7.0f max=%d\n",
					name, m.Count, m.Mean, m.P50, m.P90, m.P99, m.P999, m.Max)
			}
		}
		// Registration order, as Stats.String prints the cumulative registry.
		fmt.Println("\ncounters:")
		for _, name := range res.Stats.Names() {
			fmt.Printf("%s=%d\n", name, measured.Get(name))
		}
		for _, name := range res.Stats.FloatNames() {
			fmt.Printf("%s=%g\n", name, measured.GetFloat(name))
		}
	}
	if runErr != nil {
		os.Exit(1)
	}
}

// writeOut writes one export to path, or to stdout when path is "-", and
// returns the write error or else the file's Close error.
func writeOut(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// exitOn reports a failed export and exits 1; a nil err is a no-op.
func exitOn(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", what, err)
		os.Exit(1)
	}
}
