package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"baryon/internal/config"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the experiment golden file")

// goldenConfig is the fixed configuration behind the golden file: small
// enough for test time, large enough that every design sees capacity
// pressure. It must never change, or the golden comparison loses its
// meaning as a cross-refactor byte-identity check.
func goldenConfig() config.Config {
	cfg := config.Scaled()
	cfg.AccessesPerCore = 2000
	cfg.Seed = 1
	return cfg
}

// goldenTables renders the representative subset of the cmd/experiments
// output that the golden file pins down: the static Table I plus the three
// figure families that read counters through every layer of the metrics
// plane (hierarchy serve counters, device traffic/energy, controller CFs).
func goldenTables(t *testing.T) []byte {
	cfg := goldenConfig()
	_, fig9 := harness(t, Fig9, cfg)
	_, fig11 := harness(t, Fig11, cfg)
	_, fig12 := harness(t, Fig12, cfg)
	_, energy := harness(t, Energy, cfg)
	var buf bytes.Buffer
	for _, tab := range []*Table{TableI(), fig9, fig11, fig12, energy} {
		tab.Render(&buf)
	}
	return buf.Bytes()
}

// TestExperimentTablesGolden locks the default-config experiment output:
// with warmup disabled and epochs off, the tables must stay byte-identical
// across refactors of the statistics plane. Regenerate deliberately with
//
//	go test ./internal/experiment -run Golden -update-golden
func TestExperimentTablesGolden(t *testing.T) {
	path := filepath.Join("testdata", "tables_quick.golden")
	got := goldenTables(t)
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
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		n := len(gl)
		if len(wl) < n {
			n = len(wl)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("experiment tables diverge from golden at line %d:\n got: %s\nwant: %s",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("experiment tables diverge from golden in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestExtraTablesGolden pins the three extra experiments that vary the
// device topology or its faults — the slow-memory technology sweep, the
// fast-memory timing-model sweep and the resilience ramp — at
// goldenConfig. Regenerate deliberately with
//
//	go test ./internal/experiment -run ExtraTablesGolden -update-golden
func TestExtraTablesGolden(t *testing.T) {
	cfg := goldenConfig()
	_, slow := harness(t, SlowMemSweep, cfg)
	_, ddr := harness(t, DDRFidelitySweep, cfg)
	_, res := harness(t, Resilience, cfg)
	var buf bytes.Buffer
	for _, tab := range []*Table{slow, ddr, res} {
		tab.Render(&buf)
	}
	compareGolden(t, "extras_quick.golden", buf.Bytes())
}

// TestStageTablesGolden pins the stage-area evidence — Fig. 3(a)'s
// staged/committed access breakdown, Fig. 3(b)'s stage-size sweep and
// Fig. 4's stage-phase MPKI boxes — at goldenConfig. Regenerate
// deliberately with
//
//	go test ./internal/experiment -run StageTablesGolden -update-golden
func TestStageTablesGolden(t *testing.T) {
	cfg := goldenConfig()
	_, fig3a := harness(t, Fig3a, cfg)
	_, fig3b := harness(t, Fig3b, cfg)
	_, fig4 := harness(t, Fig4, cfg)
	var buf bytes.Buffer
	for _, tab := range []*Table{fig3a, fig3b, fig4} {
		tab.Render(&buf)
	}
	compareGolden(t, "stage_quick.golden", buf.Bytes())
}
