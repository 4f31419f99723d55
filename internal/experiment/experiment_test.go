package experiment

import (
	"context"
	"strings"
	"testing"

	"baryon/internal/config"
	"baryon/internal/cpu"
	"baryon/internal/hybrid"
	"baryon/internal/sim"
	"baryon/internal/trace"
)

// quickConfig keeps experiment tests fast while exercising every code path.
func quickConfig() config.Config {
	cfg := config.Scaled()
	cfg.AccessesPerCore = 1500
	return cfg
}

// runOne runs one (workload, design) pair through RunPairCtx and fails the
// test on any error.
func runOne(t testing.TB, cfg config.Config, w trace.Workload, design string) cpu.Result {
	t.Helper()
	res, err := RunPairCtx(context.Background(), Pair{Cfg: cfg, Workload: w, Design: design})
	if err != nil {
		t.Fatalf("%s/%s: %v", w.Name, design, err)
	}
	return res
}

// harness runs one experiment harness with zero Options and fails the test
// on any error.
func harness[R any](t testing.TB, h func(context.Context, Options, config.Config) (R, *Table, error), cfg config.Config) (R, *Table) {
	t.Helper()
	r, tab, err := h(context.Background(), Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, tab
}

func TestFactoryAllDesigns(t *testing.T) {
	cfg := quickConfig()
	w, _ := trace.ByName("505.mcf_r")
	for _, d := range []string{DesignSimple, DesignUnison, DesignDICE,
		DesignBaryon, DesignBaryon64B, DesignBaryonFA, DesignHybrid2} {
		res := runOne(t, cfg, w, d)
		if res.Cycles == 0 {
			t.Fatalf("%s: no cycles", d)
		}
		if res.Design != d {
			t.Fatalf("design name %q, want %q", res.Design, d)
		}
	}
}

// TestFactoryUnknownPanics: FactorySpec's panics are programmer-error
// invariants (Register rejects an unknown kind first); a spec that skipped
// Register still cannot build a controller.
func TestFactoryUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown kind")
		}
	}()
	FactorySpec(DesignSpec{Name: "nope", Kind: "alien"})(quickConfig(), hybrid.NewStore(nil), sim.NewStats())
}

func TestTableIRenders(t *testing.T) {
	tab := TableI()
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"448.00kB", "8192 x 4", "0.0", "Table I"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I output missing %q:\n%s", want, out)
		}
	}
}

func TestFig3aBreakdownSane(t *testing.T) {
	rows, tab := harness(t, Fig3a, quickConfig())
	if len(rows) != len(trace.SPEC()) {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		bd := r.Breakdown
		for _, v := range []float64{bd.SHits, bd.SReadMisses, bd.SWriteOverflows,
			bd.CHits, bd.CReadMisses, bd.CWriteOverflows} {
			if v < 0 || v > 1 {
				t.Fatalf("%s: ratio %f out of range", r.Workload, v)
			}
		}
		if s := bd.SHits + bd.SReadMisses + bd.SWriteOverflows; s < 0.99 || s > 1.01 {
			t.Fatalf("%s: S ratios sum to %f", r.Workload, s)
		}
	}
	var sb strings.Builder
	tab.Render(&sb)
	if !strings.Contains(sb.String(), "S.hit") {
		t.Fatal("table malformed")
	}
}

// TestFig3CommittedMoreStable verifies the paper's core claim behind Fig. 3:
// after commit, read-miss and overflow ratios drop versus the stage phase.
func TestFig3CommittedMoreStable(t *testing.T) {
	cfg := quickConfig()
	cfg.AccessesPerCore = 6000
	rows, _ := harness(t, Fig3a, cfg)
	better := 0
	for _, r := range rows {
		if r.Breakdown.CReadMisses+r.Breakdown.CWriteOverflows <
			r.Breakdown.SReadMisses+r.Breakdown.SWriteOverflows {
			better++
		}
	}
	if better < len(rows)*3/4 {
		t.Fatalf("committed blocks more stable on only %d/%d workloads", better, len(rows))
	}
}

func TestFig4PhaseStabilises(t *testing.T) {
	cfg := quickConfig()
	cfg.AccessesPerCore = 6000
	res, _ := harness(t, Fig4, cfg)
	if res.Phases == 0 {
		t.Fatal("no phases sampled")
	}
	// The paper's observation: the second half of the phase has much lower
	// median MPKI than the start.
	start := res.Boxes[0].P50
	end := (res.Boxes[7].P50 + res.Boxes[8].P50 + res.Boxes[9].P50) / 3
	if end >= start {
		t.Fatalf("stage phases do not stabilise: start p50 %.1f vs end %.1f", start, end)
	}
}

func TestFig9ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in short mode")
	}
	cfg := quickConfig()
	cfg.AccessesPerCore = 10000
	m, _ := harness(t, Fig9, cfg)
	// Every design must beat Simple on average, and Baryon must lead. The
	// margin is loose because this test runs at a third of the default
	// access budget, before the steady state fully forms.
	if m.GeoMean[DesignBaryon] <= 1.0 {
		t.Fatalf("Baryon geomean %.3f <= Simple", m.GeoMean[DesignBaryon])
	}
	for _, d := range []string{DesignUnison, DesignDICE, DesignBaryon64B} {
		if m.GeoMean[DesignBaryon] <= m.GeoMean[d]*0.92 {
			t.Fatalf("Baryon (%.3f) well below %s (%.3f); headline shape lost",
				m.GeoMean[DesignBaryon], d, m.GeoMean[d])
		}
	}
}

func TestFig12DefaultIsReference(t *testing.T) {
	cfg := quickConfig()
	rows, _ := harness(t, Fig12, cfg)
	for _, r := range rows {
		if r.Variant == "default" && r.Speedup != 1.0 {
			t.Fatalf("default variant speedup %.3f != 1", r.Speedup)
		}
		if r.MeanRangeCF < 1 || r.MeanRangeCF > 4 {
			t.Fatalf("mean CF %.2f out of range", r.MeanRangeCF)
		}
	}
}

func TestFig13SweepsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps in short mode")
	}
	cfg := quickConfig()
	for name, fn := range map[string]func(context.Context, Options, config.Config) ([]Fig13Row, *Table, error){
		"a": Fig13a, "b": Fig13b, "c": Fig13c, "d": Fig13d,
	} {
		rows, tab := harness(t, fn, cfg)
		if len(rows) == 0 || len(tab.Rows) == 0 {
			t.Fatalf("fig13%s empty", name)
		}
		for _, r := range rows {
			if r.Speedup <= 0 {
				t.Fatalf("fig13%s: %s@%s speedup %.3f", name, r.Workload, r.Point, r.Speedup)
			}
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "x", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "note")
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "== x ==") || !strings.Contains(out, "note") {
		t.Fatalf("render: %s", out)
	}
}
