package obs

import (
	"bytes"
	"flag"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"baryon/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the OpenMetrics golden file")

// omTestSnapshot builds a deterministic snapshot covering every rendering
// path: plain counters, device-scoped counters on two tiers (triggering the
// tier-label fold), a float accumulator, and histograms with linear and
// log-linear buckets.
func omTestSnapshot() sim.Snapshot {
	st := sim.NewStats()
	st.Counter("hierarchy.llcMisses").Add(1234)
	st.Counter("baryon.commits").Add(77)
	fast := st.Scope("HBM")
	fast.Counter("bytesRead").Add(4096)
	fast.Counter("bytesWritten").Add(2048)
	slow := st.Scope("DDR4-3200")
	slow.Counter("bytesRead").Add(8192)
	slow.Counter("bytesWritten").Add(1024)
	st.Float("HBM.energyPJ").Add(12.5)
	h := st.Histogram("hierarchy.lat.demand")
	for v := uint64(1); v <= 20; v++ {
		h.Observe(v) // linear buckets
	}
	h.Observe(100)
	h.Observe(100)
	h.Observe(5000) // log-linear buckets
	return st.Snapshot()
}

func omTestOptions() OMOptions {
	return OMOptions{Labels: []OMLabel{
		{Key: "design", Value: "Baryon"},
		{Key: "workload", Value: "505.mcf_r"},
		{Key: "seed", Value: "1"},
	}}
}

func TestCumBucketsMonotone(t *testing.T) {
	var h sim.Histogram
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		h.Observe(uint64(rng.Intn(1 << 20)))
	}
	h.Observe(0)
	h.Observe(1 << 45) // clamps into the final bucket
	bs := h.CumBuckets(nil)
	if len(bs) == 0 {
		t.Fatal("no buckets for a populated histogram")
	}
	for i := 1; i < len(bs); i++ {
		if bs[i].Le <= bs[i-1].Le {
			t.Fatalf("bucket %d: le %d not strictly increasing after %d", i, bs[i].Le, bs[i-1].Le)
		}
		if bs[i].Cum < bs[i-1].Cum {
			t.Fatalf("bucket %d: cumulative %d decreases after %d", i, bs[i].Cum, bs[i-1].Cum)
		}
	}
	if last := bs[len(bs)-1].Cum; last != h.Count() {
		t.Fatalf("final cumulative %d != count %d", last, h.Count())
	}
}

// TestCumBucketsWindowDelta pins the merge/delta algebra the /metrics
// window correction relies on: the cumulative buckets of a registry delta
// must equal the cumulative buckets of a histogram that observed only the
// window's values.
func TestCumBucketsWindowDelta(t *testing.T) {
	st := sim.NewStats()
	h := st.Histogram("lat")
	warm := []uint64{1, 5, 40, 700, 700, 1 << 30}
	window := []uint64{2, 5, 64, 64, 9000}
	for _, v := range warm {
		h.Observe(v)
	}
	base := st.Snapshot()
	for _, v := range window {
		h.Observe(v)
	}
	delta, ok := st.Delta(base).Hist("lat")
	if !ok {
		t.Fatal("delta snapshot lost the histogram")
	}

	var want sim.Histogram
	for _, v := range window {
		want.Observe(v)
	}
	got := delta.CumBuckets(nil)
	exp := want.CumBuckets(nil)
	if len(got) != len(exp) {
		t.Fatalf("delta buckets %v != fresh-histogram buckets %v", got, exp)
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Fatalf("bucket %d: delta %+v != fresh %+v", i, got[i], exp[i])
		}
	}
	if delta.Count() != uint64(len(window)) {
		t.Fatalf("delta count %d, want %d", delta.Count(), len(window))
	}
}

// TestWriteOpenMetricsGolden pins the rendered exposition byte-for-byte;
// regenerate deliberately with
//
//	go test ./internal/obs -run OpenMetricsGolden -update-golden
func TestWriteOpenMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, omTestSnapshot(), omTestOptions()); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	// Whatever the golden says, the output must satisfy the linter.
	if err := LintOpenMetrics(bytes.NewReader(got)); err != nil {
		t.Fatalf("rendered exposition fails lint: %v\n%s", err, got)
	}

	path := filepath.Join("testdata", "openmetrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		n := len(gl)
		if len(wl) < n {
			n = len(wl)
		}
		for i := 0; i < n; i++ {
			if gl[i] != wl[i] {
				t.Fatalf("exposition diverges from golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("exposition diverges from golden in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestWriteOpenMetricsDeviceFold checks the tier-label fold: per-device
// counters share one family with one series per tier, sorted by tier.
func TestWriteOpenMetricsDeviceFold(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, omTestSnapshot(), omTestOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "# TYPE baryon_device_bytesRead counter"); got != 1 {
		t.Fatalf("device_bytesRead TYPE lines = %d, want 1:\n%s", got, out)
	}
	iDDR := strings.Index(out, `baryon_device_bytesRead_total{design="Baryon",workload="505.mcf_r",seed="1",tier="DDR4-3200"} 8192`)
	iHBM := strings.Index(out, `baryon_device_bytesRead_total{design="Baryon",workload="505.mcf_r",seed="1",tier="HBM"} 4096`)
	if iDDR < 0 || iHBM < 0 {
		t.Fatalf("missing tier series:\n%s", out)
	}
	if iDDR > iHBM {
		t.Fatalf("tier series not sorted by tier name:\n%s", out)
	}
	if !strings.Contains(out, `baryon_hierarchy_llcMisses_total{design="Baryon",workload="505.mcf_r",seed="1"} 1234`) {
		t.Fatalf("plain counter missing:\n%s", out)
	}
}

func TestLintOpenMetricsRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"missing EOF", "# TYPE a counter\na_total 1\n", "does not end with # EOF"},
		{"content after EOF", "# EOF\n# TYPE a counter\n", "content after # EOF"},
		{"undeclared family", "a_total 1\n# EOF\n", "no declared metric family"},
		{"bad name", "# TYPE 9bad counter\n# EOF\n", "invalid"},
		{"counter without _total", "# TYPE a counter\na 1\n# EOF\n", "_total"},
		{"duplicate TYPE", "# TYPE a counter\n# TYPE a counter\n# EOF\n", "declared twice"},
		{"interleaved families", "# TYPE a counter\n# TYPE b counter\na_total 1\nb_total 1\na_total 2\n# EOF\n", "interleaved"},
		{"bad value", "# TYPE a counter\na_total x\n# EOF\n", "does not parse"},
		{"le not increasing", "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n# EOF\n", "not increasing"},
		{"cum decreasing", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 3\nh_count 5\n# EOF\n", "decreases"},
		{"no +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n# EOF\n", "no +Inf"},
		{"+Inf != count", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n# EOF\n", "!= _count"},
		{"unterminated label value", "# TYPE a counter\na_total{x=\"1 1\n# EOF\n", "unterminated"},
		{"blank line", "# TYPE a counter\n\na_total 1\n# EOF\n", "blank"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := LintOpenMetrics(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatalf("lint accepted invalid doc:\n%s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestLintOpenMetricsAccepts(t *testing.T) {
	docs := []string{
		"# EOF\n",
		"# TYPE a counter\na_total 1\n# EOF\n",
		"# TYPE a counter\n# HELP a something\na_total{k=\"v\\\"q\\\\x\"} 1.5\n# EOF\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 3\n# EOF\n",
	}
	for i, doc := range docs {
		if err := LintOpenMetrics(strings.NewReader(doc)); err != nil {
			t.Fatalf("doc %d rejected: %v\n%s", i, err, doc)
		}
	}
}

// TestMetricsHandler drives the /metrics route end to end: before any
// publish it serves an empty-but-valid exposition; after a publish it serves
// the snapshot with run-identity labels, and the output lints clean.
func TestMetricsHandler(t *testing.T) {
	var in Introspector
	mux := NewDebugMux(&in)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != OpenMetricsContentType {
		t.Fatalf("content type %q", ct)
	}
	if err := LintOpenMetrics(rec.Body); err != nil {
		t.Fatalf("pre-publish exposition invalid: %v", err)
	}

	rs := sampleStatus()
	rs.Seed = 7
	rs.Snap = omTestSnapshot()
	in.Publish(rs)
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if err := LintOpenMetrics(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	if !strings.Contains(body, `seed="7"`) || !strings.Contains(body, `workload="505.mcf_r"`) {
		t.Fatalf("run-identity labels missing:\n%s", body)
	}
	if !strings.Contains(body, "baryon_hierarchy_lat_demand_bucket{") {
		t.Fatalf("histogram buckets missing:\n%s", body)
	}
}

// TestDebugMuxExpvarFollowsLatest is the regression test for the expvar
// rebinding bug: "baryon.run" used to close over the first Introspector ever
// passed to NewDebugMux, so a second run in the same process (tests,
// long-lived harnesses) served the first run's stale status forever. The
// published Func must always read the newest Introspector.
func TestDebugMuxExpvarFollowsLatest(t *testing.T) {
	var first Introspector
	muxA := NewDebugMux(&first)
	stA := sampleStatus()
	stA.Design = "DesignA"
	first.Publish(stA)

	var second Introspector
	muxB := NewDebugMux(&second)
	stB := sampleStatus()
	stB.Design = "DesignB"
	stB.Accesses = 999
	second.Publish(stB)

	// Both muxes share the process-wide expvar handler; after the second
	// NewDebugMux it must report the second run.
	for i, mux := range []*http.ServeMux{muxA, muxB} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
		body := rec.Body.String()
		if !strings.Contains(body, `"design":"DesignB"`) {
			t.Fatalf("mux %d: expvar still serves a stale run:\n%s", i, body)
		}
		if strings.Contains(body, `"design":"DesignA"`) {
			t.Fatalf("mux %d: expvar serves the first run after rebinding:\n%s", i, body)
		}
	}
}
