package experiment

import (
	"testing"

	"baryon/internal/config"
)

func TestBudgetPaperScale(t *testing.T) {
	b := Budget(config.PaperScale())
	if b.StageTagArrayBytes != 448*1024 {
		t.Fatalf("stage tag %d", b.StageTagArrayBytes)
	}
	if b.TableFraction < 0.0005 || b.TableFraction > 0.0015 {
		t.Fatalf("table fraction %f, want ~0.001", b.TableFraction)
	}
	if b.TotalSRAMBytes < 480*1024 || b.TotalSRAMBytes > 512*1024 {
		t.Fatalf("total SRAM %d, want ~488 kB (Section III-B)", b.TotalSRAMBytes)
	}
}

func TestRemapCacheSweepMonotonicIsh(t *testing.T) {
	cfg := quickConfig()
	rows, _ := harness(t, RemapCacheSweep, cfg)
	// Per workload, the biggest cache must not have a (meaningfully) lower
	// hit rate than the smallest.
	small := map[string]float64{}
	big := map[string]float64{}
	for _, r := range rows {
		switch r.Sets {
		case 32:
			small[r.Workload] = r.HitRate
		case 256:
			big[r.Workload] = r.HitRate
		}
	}
	for w, s := range small {
		if big[w] < s-0.02 {
			t.Fatalf("%s: 256-set hit rate %.3f below 32-set %.3f", w, big[w], s)
		}
	}
}

func TestAssocSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	cfg := quickConfig()
	rows, _ := harness(t, AssocSweep, cfg)
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Fatalf("%s@%s: speedup %.3f", r.Workload, r.Point, r.Speedup)
		}
	}
}

func TestSubBlockSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	cfg := quickConfig()
	rows, _ := harness(t, SubBlockSweep, cfg)
	points := map[string]bool{}
	for _, r := range rows {
		points[r.Point] = true
		if r.Speedup <= 0 {
			t.Fatalf("%s@%s: speedup %.3f", r.Workload, r.Point, r.Speedup)
		}
	}
	for _, p := range []string{"64B", "128B", "256B"} {
		if !points[p] {
			t.Fatalf("missing point %s", p)
		}
	}
}
