package report

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"baryon/internal/config"
	"baryon/internal/experiment"
	"baryon/internal/trace"
)

func quickConfig() config.Config {
	cfg := config.Scaled()
	cfg.AccessesPerCore = 1200
	cfg.WarmupAccessesPerCore = 300
	cfg.Seed = 1
	return cfg
}

func buildBundle(t testing.TB, cfg config.Config, workload, design string) Bundle {
	t.Helper()
	w, ok := trace.ByName(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	spec, ok := experiment.Lookup(design)
	if !ok {
		t.Fatalf("unknown design %q", design)
	}
	res, err := experiment.RunPairCtx(context.Background(), experiment.Pair{Cfg: cfg, Workload: w, Design: design})
	if err != nil {
		t.Fatal(err)
	}
	key, err := Key(spec, cfg, workload)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(key, res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBundleDeterminism pins the acceptance contract: two identical runs
// produce byte-identical bundle files with equal spec hashes.
func TestBundleDeterminism(t *testing.T) {
	cfg := quickConfig()
	a := buildBundle(t, cfg, "505.mcf_r", "Baryon")
	b := buildBundle(t, cfg, "505.mcf_r", "Baryon")
	if a.SpecHash != b.SpecHash {
		t.Fatalf("spec hashes differ: %s vs %s", a.SpecHash, b.SpecHash)
	}
	if !strings.HasPrefix(a.SpecHash, "sha256:") || len(a.SpecHash) != len("sha256:")+64 {
		t.Fatalf("malformed spec hash %q", a.SpecHash)
	}
	ba, err := a.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatalf("identical runs produced different bundle bytes (%d vs %d bytes)", len(ba), len(bb))
	}
	// And a different seed changes the hash (the key actually covers it).
	cfg2 := cfg
	cfg2.Seed = 2
	c := buildBundle(t, cfg2, "505.mcf_r", "Baryon")
	if c.SpecHash == a.SpecHash {
		t.Fatal("seed change did not change the spec hash")
	}
}

// TestBundleMeasurementWindow checks the bundle's counter map is the
// measurement-window delta: with warmup on, the summed device traffic
// counters equal the headline Fast/SlowBytes (which exclude warmup).
func TestBundleMeasurementWindow(t *testing.T) {
	b := buildBundle(t, quickConfig(), "505.mcf_r", "Baryon")
	var devBytes uint64
	for name, v := range b.Counters {
		if strings.HasSuffix(name, ".bytesRead") || strings.HasSuffix(name, ".bytesWritten") {
			if dev := strings.SplitN(name, ".", 2)[0]; !strings.Contains(dev, ".") {
				devBytes += v
			}
		}
	}
	if want := b.FastBytes + b.SlowBytes; devBytes != want {
		t.Fatalf("bundle device counters sum to %d, headline traffic is %d — counters are not the measurement window", devBytes, want)
	}
	if b.Cycles == 0 || len(b.Counters) == 0 || len(b.Hists) == 0 {
		t.Fatalf("bundle incomplete: cycles=%d counters=%d hists=%d", b.Cycles, len(b.Counters), len(b.Hists))
	}
	if b.Spec.Run.WarmupAccessesPerCore == nil || *b.Spec.Run.WarmupAccessesPerCore != 300 {
		t.Fatalf("run-shape key missing warmup: %+v", b.Spec.Run)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	b := buildBundle(t, quickConfig(), "505.mcf_r", "Simple")
	dir := t.TempDir()
	path := filepath.Join(dir, FileName(b))
	if err := WriteFile(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SpecHash != b.SpecHash || got.Cycles != b.Cycles || len(got.Counters) != len(b.Counters) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// Re-marshalling a loaded bundle reproduces the original bytes.
	orig, _ := b.MarshalCanonical()
	reread, _ := got.MarshalCanonical()
	if !bytes.Equal(orig, reread) {
		t.Fatal("round-tripped bundle marshals differently")
	}

	// Corrupt schema and unknown fields fail loudly.
	data, _ := os.ReadFile(path)
	bad := bytes.Replace(data, []byte(`"schema": 1`), []byte(`"schema": 99`), 1)
	badPath := filepath.Join(dir, "bad.bundle.json")
	os.WriteFile(badPath, bad, 0o644)
	if _, err := ReadFile(badPath); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("foreign schema accepted: %v", err)
	}
	unk := bytes.Replace(data, []byte(`"schema": 1`), []byte(`"schema": 1, "wallClock": "2026-01-01"`), 1)
	os.WriteFile(badPath, unk, 0o644)
	if _, err := ReadFile(badPath); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestDecodeRejectsTrailingData: a bundle followed by anything but
// whitespace is not a bundle, so a store entry or file carrying a second
// value or garbage after it fails loudly.
func TestDecodeRejectsTrailingData(t *testing.T) {
	key := SpecKey{Workload: "synthetic", Seed: 1}
	h, err := key.Hash()
	if err != nil {
		t.Fatal(err)
	}
	good, err := Bundle{Schema: SchemaVersion, SpecHash: h, Spec: key}.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{"", "\n", " \t\r\n "} {
		if _, err := Decode(append(bytes.Clone(good), tail...)); err != nil {
			t.Errorf("bundle + %q rejected: %v", tail, err)
		}
	}
	for _, tail := range []string{"{}", "garbage", `{"schema":2}`, "\n\n0", "]"} {
		if _, err := Decode(append(bytes.Clone(good), tail...)); err == nil {
			t.Errorf("bundle + %q accepted", tail)
		}
	}
}

func TestDiffSelfClean(t *testing.T) {
	b := buildBundle(t, quickConfig(), "505.mcf_r", "Baryon")
	r := Diff(b, b, Tolerance{})
	if !r.Clean() {
		t.Fatalf("self-diff not clean: %+v", r.Findings)
	}
	if !r.SpecMatch {
		t.Fatal("self-diff reports spec mismatch")
	}
}

func TestDiffDetectsRegression(t *testing.T) {
	a := buildBundle(t, quickConfig(), "505.mcf_r", "Baryon")
	b := a
	b.Counters = make(map[string]uint64, len(a.Counters))
	for k, v := range a.Counters {
		b.Counters[k] = v
	}
	b.Counters["hierarchy.llcMisses"] += 100
	r := Diff(a, b, Tolerance{})
	if r.Clean() {
		t.Fatal("injected counter regression not detected")
	}
	found := false
	for _, f := range r.Findings {
		if f.Kind == "counter" && f.Key == "hierarchy.llcMisses" {
			found = true
		}
	}
	if !found {
		t.Fatalf("regression not attributed to the tampered counter: %+v", r.Findings)
	}

	// The same change passes under a generous tolerance.
	if r := Diff(a, b, Tolerance{CounterRel: 0.5, PctRel: 0.5}); !r.Clean() {
		t.Fatalf("tolerance not applied: %+v", r.Findings)
	}
}

func TestDiffMissingMetric(t *testing.T) {
	a := buildBundle(t, quickConfig(), "505.mcf_r", "Simple")
	b := a
	b.Counters = make(map[string]uint64, len(a.Counters))
	for k, v := range a.Counters {
		b.Counters[k] = v
	}
	delete(b.Counters, "hierarchy.llcMisses")
	r := Diff(a, b, Tolerance{})
	if r.Clean() {
		t.Fatal("missing counter not detected (should diff against zero)")
	}
}

// TestObservePairs runs a small batch through the experiment pool with the
// bundle observer in its Options and checks every successful pair wrote its
// bundle, re-readable and pairable.
func TestObservePairs(t *testing.T) {
	dir := t.TempDir()
	var errBuf bytes.Buffer
	observe, err := ObservePairs(dir, &errBuf)
	if err != nil {
		t.Fatal(err)
	}

	cfg := quickConfig()
	w, _ := trace.ByName("505.mcf_r")
	pairs := []experiment.Pair{
		{Cfg: cfg, Workload: w, Design: "Simple"},
		{Cfg: cfg, Workload: w, Design: "Baryon"},
	}
	for _, pr := range experiment.RunPairsCtx(t.Context(), experiment.Options{Observe: observe}, pairs) {
		if pr.Err != nil {
			t.Fatal(pr.Err)
		}
	}
	if errBuf.Len() > 0 {
		t.Fatalf("observer reported errors:\n%s", errBuf.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("expected 2 bundles, found %d", len(entries))
	}
	for _, e := range entries {
		b, err := ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if b.Spec.Workload != "505.mcf_r" {
			t.Fatalf("bundle %s has workload %q", e.Name(), b.Spec.Workload)
		}
	}
}

// Benchmark results land in these so the compiler keeps the measured calls.
var (
	marshalSink []byte
	decodeSink  Bundle
	hashSink    string
)

// BenchmarkKey times a run's spec key and hash, the work the service does
// for every request before it looks the result up.
func BenchmarkKey(b *testing.B) {
	spec, _ := experiment.Lookup("Baryon")
	cfg := config.Scaled()
	cfg.Seed, cfg.AccessesPerCore, cfg.WarmupAccessesPerCore = 7, 2000, 500
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key, err := Key(spec, cfg, "505.mcf_r")
		if err == nil {
			hashSink, err = key.Hash()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshalCanonical times encoding one bundle, from a short Baryon
// run, to its canonical bytes, the form the store hashes and serves.
func BenchmarkMarshalCanonical(b *testing.B) {
	bundle := buildBundle(b, quickConfig(), "505.mcf_r", "Baryon")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if marshalSink, err = bundle.MarshalCanonical(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode times the strict decode of the same bundle's canonical
// bytes, the path every verified store read takes.
func BenchmarkDecode(b *testing.B) {
	data, err := buildBundle(b, quickConfig(), "505.mcf_r", "Baryon").MarshalCanonical()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if decodeSink, err = Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestKeyDefaultConfigUnchanged pins default-config spec hashes: recording
// a harness's config changes in the key must not move the key of a run
// that changes nothing beyond its run shape, or every stored result and
// committed digest would go stale.
func TestKeyDefaultConfigUnchanged(t *testing.T) {
	quick := quickConfig()
	quick.EpochAccesses = 5000
	for _, tc := range []struct {
		design string
		cfg    config.Config
		want   string
	}{
		{"Baryon", config.Scaled(), "sha256:cf3f387b9be8bda80d64bd8617b465b9b409726af8403985c4a15278f27a791c"},
		{"Baryon", quick, "sha256:72f71fca0a7cc0c146260a563cd618bbbc22d42022e2ad71910b848c2e4b6501"},
		{"Baryon-CXL", config.Scaled(), "sha256:2d390bb8539fe838032a4f4ca5ccbead9ccea84ddcbf8dff451aac7646df613b"},
		{"Baryon-CXL", quick, "sha256:0c7e456e1d6429685976f6581a4a308fc8394692f2b6381ed9e7c5452dcf9541"},
	} {
		spec, _ := experiment.Lookup(tc.design)
		key, err := Key(spec, tc.cfg, "505.mcf_r")
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := key.Hash(); got != tc.want {
			t.Errorf("%s key hash = %s, want %s", tc.design, got, tc.want)
		}
	}
}

// TestKeyRecordsHarnessConfig: a sweep harness changes the config per pair,
// and the key must say so — Fig. 13(c)'s 6 workloads x 6 stage points give
// 36 distinct spec hashes, so their bundles cannot overwrite each other.
func TestKeyRecordsHarnessConfig(t *testing.T) {
	cfg := config.Scaled()
	cfg.AccessesPerCore = 200
	var (
		mu     sync.Mutex
		hashes = map[string]bool{}
		runs   int
	)
	observe := func(p experiment.Pair, _ experiment.PairResult) {
		spec, _ := experiment.Lookup(p.Design)
		key, err := Key(spec, p.Cfg, p.Workload.Name)
		if err != nil {
			t.Error(err)
			return
		}
		h, _ := key.Hash()
		mu.Lock()
		defer mu.Unlock()
		hashes[h] = true
		runs++
	}
	if _, _, err := experiment.Fig13c(t.Context(), experiment.Options{Observe: observe}, cfg); err != nil {
		t.Fatal(err)
	}
	if runs != 36 || len(hashes) != 36 {
		t.Fatalf("Fig. 13(c): %d runs, %d distinct spec hashes, want 36 and 36", runs, len(hashes))
	}
}
