package cpu_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"baryon/internal/cpu"
	"baryon/internal/experiment"
	"baryon/internal/obs"
	"baryon/internal/trace"
)

// TestTracerDoesNotPerturbSimulation pins the tracing plane's core
// guarantee for every controller kind: attaching a tracer (even at 1-in-1
// sampling) observes the simulation without changing it. Every
// architectural output must be byte-identical with and without the tracer,
// and the runner must have reached the controller's engine and devices:
// the trace holds a controller decision and an NVM device span.
func TestTracerDoesNotPerturbSimulation(t *testing.T) {
	cfg := smallConfig()
	cfg.WarmupAccessesPerCore = 500
	w, _ := trace.ByName("505.mcf_r")
	for _, design := range []string{
		experiment.DesignSimple, experiment.DesignUnison, experiment.DesignDICE,
		experiment.DesignBaryon, experiment.DesignHybrid2, experiment.DesignOSPaging,
	} {
		t.Run(design, func(t *testing.T) {
			spec, ok := experiment.Lookup(design)
			if !ok {
				t.Fatalf("design %s not registered", design)
			}
			factory := experiment.FactorySpec(spec)
			plain := mustRun(t, cpu.NewRunnerSource(cfg, w, factory))

			traced := cpu.NewRunnerSource(cfg, w, factory)
			tr := obs.NewTracer(1, 0)
			traced.SetTracer(tr)
			res := mustRun(t, traced)

			if res.Cycles != plain.Cycles || res.Instructions != plain.Instructions {
				t.Fatalf("tracer perturbed timing: cycles %d vs %d, instr %d vs %d",
					res.Cycles, plain.Cycles, res.Instructions, plain.Instructions)
			}
			if res.FastBytes != plain.FastBytes || res.SlowBytes != plain.SlowBytes {
				t.Fatalf("tracer perturbed traffic: fast %d vs %d, slow %d vs %d",
					res.FastBytes, plain.FastBytes, res.SlowBytes, plain.SlowBytes)
			}
			if res.FastServeRate != plain.FastServeRate || res.EnergyPJ != plain.EnergyPJ {
				t.Fatalf("tracer perturbed metrics: serve %f vs %f, energy %f vs %f",
					res.FastServeRate, plain.FastServeRate, res.EnergyPJ, plain.EnergyPJ)
			}
			if res.Stats.String() != plain.Stats.String() {
				t.Fatal("tracer perturbed the run's counters")
			}

			var summary strings.Builder
			if err := tr.WriteFlameSummary(&summary); err != nil {
				t.Fatal(err)
			}
			var seen, sampled uint64
			if _, err := fmt.Sscanf(summary.String(), "trace: %d requests seen, %d sampled", &seen, &sampled); err != nil {
				t.Fatalf("summary %q: %v", summary.String(), err)
			}
			if seen == 0 || sampled != seen {
				t.Fatalf("tracer saw %d reqs, sampled %d (want all at 1-in-1)", seen, sampled)
			}
			// A run must produce at least one request that walked the full
			// plane: issue -> caches -> controller decision -> device ->
			// completion.
			phases := map[uint64]map[string]bool{}
			names := map[string]bool{}
			for _, e := range tr.Events() {
				if phases[e.Req] == nil {
					phases[e.Req] = map[string]bool{}
				}
				phases[e.Req][e.Name] = true
				names[e.Name] = true
			}
			for _, name := range []string{"decision", "NVM"} {
				if !names[name] {
					t.Fatalf("trace has no %q event", name)
				}
			}
			best := 0
			for _, set := range phases {
				if len(set) > best {
					best = len(set)
				}
			}
			if best < 5 {
				t.Fatalf("deepest request has %d distinct span phases, want >= 5", best)
			}

			var buf bytes.Buffer
			if err := tr.WriteChromeJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if !json.Valid(buf.Bytes()) {
				t.Fatal("trace JSON invalid")
			}
		})
	}
}

// TestResultLatencyHistograms checks the Result's measurement window
// carries the latency histograms: the whole-plane demand histogram and the
// per-class controller and device histograms all show up in
// Stats.Delta(MeasureStart) with consistent counts.
func TestResultLatencyHistograms(t *testing.T) {
	cfg := smallConfig()
	cfg.WarmupAccessesPerCore = 500
	w, _ := trace.ByName("505.mcf_r")
	res := mustRun(t, cpu.NewRunnerSource(cfg, w, baryonFactory))
	measured := res.Stats.Delta(res.MeasureStart)

	h, ok := measured.Hist("hierarchy.lat.demand")
	if !ok {
		t.Fatalf("no hierarchy.lat.demand histogram; have %v", measured.HistNames())
	}
	demand := h.Summary()
	// Every post-warmup access lands in the demand histogram.
	want := uint64(cfg.AccessesPerCore * cfg.Cores)
	if demand.Count != want {
		t.Fatalf("demand count %d, want %d", demand.Count, want)
	}
	if demand.P50 <= 0 || demand.P999 < demand.P50 || float64(demand.Max) < demand.P999 {
		t.Fatalf("demand summary not ordered: %+v", demand)
	}
	// The measured window summary mirrors the same histogram.
	if res.MemLat.Count != demand.Count {
		t.Fatalf("MemLat count %d != %d", res.MemLat.Count, demand.Count)
	}
	// Device-level histograms exist for both tiers.
	for _, name := range []string{"DDR4-3200.lat.service", "NVM.lat.service"} {
		if h, ok := measured.Hist(name); !ok || h.Count() == 0 {
			t.Fatalf("missing device histogram %s (have %v)", name, measured.HistNames())
		}
	}
}

// TestRunzMatchesMetricsAfterWarmup: /runz and /metrics render the same
// published snapshot, so after a warmup window a counter on /runz carries
// its measurement-window value, exactly as /metrics does, rather than the
// cumulative registry value that still counts warmup traffic.
func TestRunzMatchesMetricsAfterWarmup(t *testing.T) {
	cfg := smallConfig()
	cfg.WarmupAccessesPerCore = 500
	w, _ := trace.ByName("505.mcf_r")
	in := &obs.Introspector{}
	r := cpu.NewRunnerSource(cfg, w, baryonFactory)
	r.SetIntrospector(in)
	mustRun(t, r)

	mux := obs.NewDebugMux(in)
	get := func(path string) string {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Body.String()
	}
	// value returns the last field of the first line of body whose first
	// field starts with prefix.
	value := func(body, prefix string) string {
		for _, line := range strings.Split(body, "\n") {
			if f := strings.Fields(line); len(f) >= 2 && strings.HasPrefix(f[0], prefix) {
				return f[len(f)-1]
			}
		}
		t.Fatalf("no %q line in:\n%s", prefix, body)
		return ""
	}
	runz := value(get("/runz"), "hierarchy.demandLines")
	metrics := value(get("/metrics"), "baryon_hierarchy_demandLines_total{")
	want := strconv.Itoa(cfg.AccessesPerCore * cfg.Cores)
	if runz != metrics || metrics != want {
		t.Fatalf("hierarchy.demandLines: /runz %s, /metrics %s, want both %s (the measured window)", runz, metrics, want)
	}
}
