package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"baryon/bench/doc"
	"baryon/internal/experiment"
	"baryon/internal/service"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from the current simulator")

func loadBenchmark(t *testing.T) doc.Benchmark {
	t.Helper()
	b, err := doc.Load(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSON checks the declaration against its limits and against
// the workloads and run length this program implements.
func TestBenchmarkJSON(t *testing.T) {
	b := loadBenchmark(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", b.RunSeconds, defaultSeconds)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s with better=lower, got %+v", m)
		}
	}
}

// TestDigests checks the committed seed-1 digests of every sim job, which
// the seed-1 benchmark run also enforces. -update rewrites them.
func TestDigests(t *testing.T) {
	got := map[string]string{}
	for _, w := range workloads {
		if w.sim == nil {
			continue
		}
		b := newBench(context.Background(), w, 1, 1, false, io.Discard)
		jobs, err := b.simJobs()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range jobs {
			data, err := simRun(b.ctx, r)
			if err != nil {
				t.Fatal(err)
			}
			got[r.name()] = digest(data)
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "digests.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want map[string]string
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d committed digests, %d sim jobs at seed 1", len(want), len(got))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: bundle sha256 %s, committed %q", name, d, want[name])
		}
	}
}

// TestTracedWrappersKeepBundles runs every built-in design, the three-tier
// ones included, with and without the trace wrappers: the bundles must be
// byte-identical.
func TestTracedWrappersKeepBundles(t *testing.T) {
	b := newBench(context.Background(), workloads[0], 1, 1, true, io.Discard)
	for _, d := range experiment.Designs() {
		r, err := resolve(service.Job{Design: d, Workload: "505.mcf_r", Seed: 7, Accesses: 200})
		if err != nil {
			t.Fatal(err)
		}
		want, err := simRun(b.ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := b.tracedRun(0, b.opID(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: traced bundle differs from the untraced one", d)
		}
	}
	if b.lay.ctrlCalls == 0 || b.lay.traceCalls == 0 {
		t.Errorf("wrappers saw %d trace and %d controller calls", b.lay.traceCalls, b.lay.ctrlCalls)
	}
}

// TestSmoke runs one op of every workload, untraced and traced, and checks
// that it passes its checks and emits exactly the metrics BENCHMARK.json
// declares, with their units.
func TestSmoke(t *testing.T) {
	decl := loadBenchmark(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				t.Parallel()
				smoke(t, w, traced, want)
			})
		}
	}
}

func smoke(t *testing.T, w workload, traced bool, want []doc.MetricSpec) {
	b := newBench(context.Background(), w, 2, 1, traced, io.Discard)
	b.reps, b.maxOps = 1, 1
	res, detail, err := b.run()
	if err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Errorf("%s traced=%v: correct=%v attempted=%d failures=%v", w.name, traced, res.Correct, res.Attempted, detail.Failures)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
		}
	}
	for _, name := range detail.OutsideLoop {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("%s: outside-loop metric %s is not reported", w.name, name)
		}
	}
	if traced {
		checkTraceFile(t, b)
	}
}

// checkTraceFile writes a traced run's spans and loads them back as Chrome
// trace_event JSON.
func checkTraceFile(t *testing.T, b *bench) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := b.rec.writeFile(path, b.w.name); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" && e.Ph != "M" {
			t.Errorf("%s: event %q has phase %q", b.w.name, e.Name, e.Ph)
		}
		names[e.Name] = true
	}
	for _, n := range []string{"op", "cpu.run", "http.handler"} {
		if !names[n] {
			t.Errorf("%s: no %q span", b.w.name, n)
		}
	}
}

// TestRequestGenBlocks checks serve-mixed's request sequence: exactly one
// fresh job, sent twice at once, in every block of freshEvery requests,
// never straddling two blocks, and each fresh job new.
func TestRequestGenBlocks(t *testing.T) {
	w, _ := lookupWorkload("serve-mixed")
	spec := w.serve
	keys, err := grid(spec.designs, spec.workloads, []uint64{1, 2}, spec.accesses, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen := newRequestGen(spec, keys, 3)
	seen := map[string]bool{}
	for block := 0; block < 50; block++ {
		fresh := 0
		for sent := 0; sent < spec.freshEvery; {
			r, copies, err := gen.next()
			if err != nil {
				t.Fatal(err)
			}
			if copies > 1 {
				fresh++
				if seen[r.hash] || copies != maxInFlight {
					t.Fatalf("block %d: fresh job %s sent %d times, seen before %v", block, r.name(), copies, seen[r.hash])
				}
				seen[r.hash] = true
			}
			sent += copies
			if sent > spec.freshEvery {
				t.Fatalf("block %d: a fresh job straddles two blocks", block)
			}
		}
		if fresh != 1 {
			t.Fatalf("block %d: %d fresh jobs, want 1", block, fresh)
		}
	}
}

// TestHostClockSpan checks that a measured span leaves the kernel samples
// out and divides each segment by the factor of the samples at its ends.
func TestHostClockSpan(t *testing.T) {
	t0 := time.Now()
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	c := hostClock{samples: []calSample{
		{start: at(1000), end: at(1002), ms: calRefMs},
		{start: at(2000), end: at(2002), ms: 2 * calRefMs},
	}}
	wall, scaled := c.span(0, t0, at(3000))
	// Segments: 1000 ms at factor 1, 998 ms at 1.5, 998 ms at 2.
	if want := 2.996; math.Abs(wall-want) > 1e-9 {
		t.Errorf("wall %v s, want %v", wall, want)
	}
	if want := 1 + 0.998/1.5 + 0.998/2; math.Abs(scaled-want) > 1e-9 {
		t.Errorf("scaled %v s, want %v", scaled, want)
	}
	if f := c.factor(5, 9); f != 1 {
		t.Errorf("factor with no samples %v, want 1", f)
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) in Python.
	q1, q2, q3 := doc.Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
