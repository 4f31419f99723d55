package experiment

import (
	"testing"

	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/trace"
)

// TestHarnessesReadMeasuredWindow runs Fig. 3(a) and the CXL sweep with a
// warmup and checks every row against the measured
// window of the same run, so no warmup counter leaks into a row. Each part
// also checks that its warmup moved the counters it reads, without which
// the comparison could not tell the window from the whole run.
func TestHarnessesReadMeasuredWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns two harness grids")
	}
	cfg := config.Scaled()
	cfg.AccessesPerCore = 300
	cfg.WarmupAccessesPerCore = 300
	cfg.Seed = 1

	t.Run("fig3a", func(t *testing.T) {
		rows, _ := harness(t, Fig3a, cfg)
		warm := false
		for i, w := range trace.SPEC() {
			res := runOne(t, cfg, w, DesignBaryon)
			want := core.Breakdown(res.Stats.Delta(res.MeasureStart))
			if rows[i].Breakdown != want {
				t.Errorf("%s: row %+v, want the window's %+v", w.Name, rows[i].Breakdown, want)
			}
			warm = warm || core.Breakdown(res.Stats.Snapshot()) != want
		}
		if !warm {
			t.Fatal("the warmup moved no Fig. 3 ratio")
		}
	})

	t.Run("cxl", func(t *testing.T) {
		rows, _ := harness(t, CXLSweep, cfg)
		w := trace.Representative()[0]
		warm := false
		for _, r := range rows {
			c := cfg
			c.Tiers = cxlSweepTiers(r.LinkBW)
			res := runOne(t, c, w, r.Design)
			if want := float64(res.CXLLinkBytes) / (1 << 20); r.LinkMB != want {
				t.Errorf("%s at %.0f B/cycle: link %.4f MB, want the window's %.4f", r.Design, r.LinkBW, r.LinkMB, want)
			}
			if want := float64(res.CXLInternalBytes) / (1 << 20); r.InternalMB != want {
				t.Errorf("%s at %.0f B/cycle: internal %.4f MB, want the window's %.4f", r.Design, r.LinkBW, r.InternalMB, want)
			}
			warm = warm || res.Warmup.CXLLinkBytes > 0
		}
		if !warm {
			t.Fatal("the warmup moved no CXL link byte")
		}
	})
}
