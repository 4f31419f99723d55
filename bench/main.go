// Command bench is the repository's benchmark: it measures the simulator and
// the baryonsimd service end to end on four workloads, checks that every
// output is correct, and, in a separate traced run, times the calls into
// each layer from outside the layer.
//
//	bash bench/run.sh --workload sim-baryon --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --seed 1                 # every workload
//	bash bench/run.sh --seed 1 --trace 1 --trace-out spans.trace.json
//
// With --workload the run prints two JSON lines: a detail line (host shape,
// host factor and wall-clock values, op and sample counts, set-up
// repetitions, failures) and, last, the result {"correct", "attempted",
// "failed", "metrics"}. Without it every workload runs in its own child
// process, so set-up time and peak memory belong to one workload, and one
// JSON document collects them all. The exit code is 0 when every check
// passed, 1 when one failed, 2 on bad flags or a host with fewer CPUs than
// the requests a serve workload has out at once.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"baryon/bench/doc"
)

// defaultSeconds is the measured time per workload; it equals run_seconds
// in BENCHMARK.json.
const defaultSeconds = 25

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload only (empty = every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "seed for the run seeds and request sequences")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per workload")
	traceFlag := fs.Int("trace", 0, "1 = traced run that reports the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "traced runs: write the spans to this file as Chrome trace_event JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	if maxInFlight > runtime.NumCPU() {
		fmt.Fprintf(stderr, "bench: the serve workloads send up to %d requests at once but this host has %d CPUs\n", maxInFlight, runtime.NumCPU())
		return 2
	}
	traced := *traceFlag == 1
	if *name == "" {
		return runAll(ctx, *seed, *seconds, traced, *traceOut, stdout, stderr)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	// A workload runs on one P. With two, Baryon's compression fit checks
	// go to a goroutine pool (CompressWorkers 0 sizes it by GOMAXPROCS),
	// whose hand-offs wait on the second vCPU of the shared host: in ten
	// sim-baryon runs scaled by the host factor, three had a median run 9
	// to 14% and a 90th percentile 20 to 27% above the other seven. The
	// garbage collector's and the HTTP server's goroutines likewise moved
	// the serve workloads' tails with the second vCPU. With one P the pool
	// runs inline, as CompressWorkers 1 makes it.
	runtime.GOMAXPROCS(1)
	b := newBench(ctx, w, *seed, *seconds, traced, stderr)
	res, detail, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if traced && *traceOut != "" {
		if err := b.rec.writeFile(*traceOut, w.name); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(detail); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed their checks\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of this binary and prints
// one document with all their results.
func runAll(ctx context.Context, seed uint64, seconds float64, traced bool, traceOut string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	d := doc.Document{
		Seed: seed, Seconds: seconds, Trace: traced, Host: hostShape(),
		Correct: true, Workloads: map[string]doc.Run{},
	}
	var parts []string
	for _, w := range workloads {
		trace := "0"
		if traced {
			trace = "1"
		}
		args := []string{"--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace}
		if traced && traceOut != "" {
			part := traceOut + "." + w.name
			parts = append(parts, part)
			args = append(args, "--trace-out", part)
		}
		fmt.Fprintf(stderr, "bench: running %s\n", w.name)
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stdout = &out
		cmd.Stderr = stderr
		runErr := cmd.Run()
		r, err := parseChild(out.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v (exit: %v)\n", w.name, err, runErr)
			return 1
		}
		d.Workloads[w.name] = r
		if runErr != nil || !r.Correct {
			d.Correct = false
		}
	}
	if len(parts) > 0 {
		if err := mergeTraceFiles(traceOut, parts); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !d.Correct {
		return 1
	}
	return 0
}

// parseChild reads a single-workload run's output: its last two lines are
// the detail and the result.
func parseChild(out []byte) (doc.Run, error) {
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if len(lines) < 2 {
		return doc.Run{}, fmt.Errorf("child printed %d lines, want a detail and a result line", len(lines))
	}
	var r doc.Run
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &r.Detail); err != nil {
		return doc.Run{}, fmt.Errorf("detail line: %w", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.Result); err != nil {
		return doc.Run{}, fmt.Errorf("result line: %w", err)
	}
	return r, nil
}
