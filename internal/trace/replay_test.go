package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"baryon/internal/datagen"
)

const sampleTrace = `# comment line
0 R 0x1000 5
0 W 0x1040 3
1 R 0x2000 7

1 R 0x2040 2
`

func TestParseReplay(t *testing.T) {
	rep, err := ParseReplay(strings.NewReader(sampleTrace), "t", datagen.Mix{Weights: [5]float64{1, 1, 1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerCore) != 2 {
		t.Fatalf("cores=%d", len(rep.PerCore))
	}
	if len(rep.PerCore[0]) != 2 || len(rep.PerCore[1]) != 2 {
		t.Fatalf("record counts %d/%d", len(rep.PerCore[0]), len(rep.PerCore[1]))
	}
	a := rep.PerCore[0][1]
	if !a.Write || a.Addr != 0x1040 || a.Gap != 3 {
		t.Fatalf("record %+v", a)
	}
}

func TestParseReplayErrors(t *testing.T) {
	cases := map[string]string{
		"bad fields": "0 R 0x1000\n",
		"bad core":   "x R 0x1000 5\n",
		"bad op":     "0 Z 0x1000 5\n",
		"bad addr":   "0 R zz 5\n",
		"bad gap":    "0 R 0x1000 -1\n",
		"empty":      "# nothing\n",
		"core gap":   "1 R 0x1000 5\n", // core 0 missing
	}
	for name, body := range cases {
		if _, err := ParseReplay(strings.NewReader(body), "t", datagen.Mix{Weights: [5]float64{1, 1, 1, 1, 1}}); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestReplayWriteParseRoundTrip(t *testing.T) {
	w, _ := ByName("505.mcf_r")
	var buf bytes.Buffer
	var want []Access
	s := w.NewStream(0, 1024, 1)
	for i := 0; i < 200; i++ {
		a := s.Next()
		want = append(want, a)
		if err := WriteReplayRecord(&buf, 0, a); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := ParseReplay(&buf, "rt", w.Mix)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.PerCore[0]
	if len(got) != len(want) {
		t.Fatalf("records %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestReplayStreamsWrapAndSpread(t *testing.T) {
	rep := &Replay{
		Name: "r", Mix: datagen.Mix{Weights: [5]float64{1, 1, 1, 1, 1}},
		PerCore: [][]Access{{{Addr: 64, Gap: 1}, {Addr: 128, Gap: 2}}},
	}
	streams := rep.Streams(3, 0, 0)
	if len(streams) != 3 {
		t.Fatalf("streams=%d", len(streams))
	}
	s := streams[2] // beyond the recorded set: replays core 0
	if a := s.Next(); a.Addr != 64 {
		t.Fatalf("first=%+v", a)
	}
	s.Next()
	if a := s.Next(); a.Addr != 64 {
		t.Fatalf("no wrap: %+v", a)
	}
}

func TestWorkloadImplementsSource(t *testing.T) {
	var src Source = Workload{Name: "x", GapMean: 4, FootprintFactor: 1, BlockUtil: 1}
	if src.SourceName() != "x" {
		t.Fatal("name")
	}
	streams := src.Streams(2, 512, 1)
	if len(streams) != 2 {
		t.Fatal("streams")
	}
	streams[0].Next()
}

// TestLoadReplayFileName: a replay is named after the trace's bytes and the
// value mix, so the same trace under two paths is one run and the same
// trace under two mixes is two.
func TestLoadReplayFileName(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.txt"), filepath.Join(dir, "sub-b.txt")
	for _, p := range []string{a, b} {
		if err := os.WriteFile(p, []byte(sampleTrace), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mcf, _ := ByName("505.mcf_r")
	twi, _ := ByName("pr.twi")
	load := func(path string, w Workload) string {
		t.Helper()
		rep, err := LoadReplayFile(path, w)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Mix != w.Mix {
			t.Fatalf("replay mix %v, want %s's %v", rep.Mix, w.Name, w.Mix)
		}
		return rep.SourceName()
	}
	nameA := load(a, mcf)
	if !strings.HasPrefix(nameA, "trace-") || !strings.HasSuffix(nameA, "+505.mcf_r") || len(nameA) != len("trace-")+12+len("+505.mcf_r") {
		t.Fatalf("replay name %q, want trace-<12 hex>+505.mcf_r", nameA)
	}
	if nameB := load(b, mcf); nameB != nameA {
		t.Fatalf("same bytes under two paths named %q and %q", nameA, nameB)
	}
	if nameTwi := load(a, twi); nameTwi == nameA {
		t.Fatalf("two value mixes share the name %q", nameA)
	}
}
