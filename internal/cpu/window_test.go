package cpu_test

import (
	"strings"
	"testing"

	"baryon/internal/cpu"
	"baryon/internal/trace"
)

// TestRunnerWarmupWindows checks the warmup/measurement split: the two
// windows cover exactly the configured access budgets, the headline metrics
// equal the measurement window, and the warmup traffic is excluded from them.
func TestRunnerWarmupWindows(t *testing.T) {
	cfg := smallConfig()
	cfg.WarmupAccessesPerCore = 500
	w, ok := trace.ByName("505.mcf_r")
	if !ok {
		t.Fatal("workload missing")
	}
	res := mustRun(t, cpu.NewRunnerSource(cfg, w, baryonFactory))

	wantWarm := uint64(cfg.WarmupAccessesPerCore * cfg.Cores)
	wantMeas := uint64(cfg.AccessesPerCore * cfg.Cores)
	if res.Warmup.Accesses != wantWarm {
		t.Errorf("Warmup.Accesses = %d, want %d", res.Warmup.Accesses, wantWarm)
	}
	if res.Accesses != wantMeas {
		t.Errorf("Accesses = %d, want %d", res.Accesses, wantMeas)
	}
	if res.Warmup.Instructions == 0 || res.Warmup.Cycles == 0 {
		t.Error("warmup window recorded no work")
	}
	if res.Warmup.FastBytes == 0 || res.Warmup.EnergyPJ <= 0 {
		t.Error("warmup window recorded no device traffic")
	}
	// The registry still holds run totals: both windows' traffic.
	total := res.Stats.Get("hierarchy.demandLines")
	if total != wantWarm+wantMeas {
		t.Errorf("demandLines = %d, want %d (warmup+measured)", total, wantWarm+wantMeas)
	}
}

// TestRunnerWarmupZeroMatchesColdStart pins the compatibility guarantee:
// warmup=0 must reproduce the historical cold-start run bit-for-bit, with
// the measurement window equal to the whole run.
func TestRunnerWarmupZeroMatchesColdStart(t *testing.T) {
	w, _ := trace.ByName("520.omnetpp_r")
	cold := mustRun(t, cpu.NewRunnerSource(smallConfig(), w, baryonFactory))

	cfg := smallConfig()
	cfg.WarmupAccessesPerCore = 0
	res := mustRun(t, cpu.NewRunnerSource(cfg, w, baryonFactory))

	if res.Cycles != cold.Cycles || res.Instructions != cold.Instructions ||
		res.FastServeRate != cold.FastServeRate ||
		res.FastBytes != cold.FastBytes || res.SlowBytes != cold.SlowBytes ||
		res.EnergyPJ != cold.EnergyPJ || res.BloatFactor != cold.BloatFactor {
		t.Fatal("warmup=0 run differs from cold-start run")
	}
	if res.Warmup.Accesses != 0 || res.Warmup.Cycles != 0 {
		t.Errorf("warmup window not empty: %+v", res.Warmup)
	}
	if res.Accesses == 0 {
		t.Error("measurement window empty")
	}
}

// TestRunnerEpochSeries checks the per-epoch time-series: non-empty,
// sequentially indexed, covering the measurement window exactly (including
// the partial tail epoch), with cumulative EndAccesses.
func TestRunnerEpochSeries(t *testing.T) {
	cfg := smallConfig()
	cfg.WarmupAccessesPerCore = 250
	cfg.EpochAccesses = 7000 // not a divisor of 2000*16: forces a tail epoch
	w, _ := trace.ByName("505.mcf_r")
	res := mustRun(t, cpu.NewRunnerSource(cfg, w, baryonFactory))

	if len(res.Epochs) == 0 {
		t.Fatal("no epochs collected")
	}
	var sum uint64
	for i, e := range res.Epochs {
		if e.Index != i {
			t.Errorf("epoch %d has Index %d", i, e.Index)
		}
		if e.Accesses == 0 {
			t.Errorf("epoch %d is empty", i)
		}
		sum += e.Accesses
		if e.EndAccesses != sum {
			t.Errorf("epoch %d EndAccesses = %d, want cumulative %d", i, e.EndAccesses, sum)
		}
	}
	if sum != res.Accesses {
		t.Errorf("epoch accesses sum %d != measured %d", sum, res.Accesses)
	}
	want := int((res.Accesses + uint64(cfg.EpochAccesses) - 1) / uint64(cfg.EpochAccesses))
	if len(res.Epochs) != want {
		t.Errorf("epoch count = %d, want %d", len(res.Epochs), want)
	}
	// Epoch windows delta device traffic too.
	if res.Epochs[0].FastBytes == 0 || res.Epochs[0].EnergyPJ <= 0 {
		t.Error("first epoch has no device traffic")
	}
}

// TestRunnerMeasureStartDelta pins the export-layer contract of
// Result.MeasureStart: deltaing the live registry against it recovers the
// measurement-window counter map, consistent with the measured window and
// the headline metrics (the recipe report bundles and -metrics-out use).
func TestRunnerMeasureStartDelta(t *testing.T) {
	cfg := smallConfig()
	cfg.WarmupAccessesPerCore = 500
	w, _ := trace.ByName("505.mcf_r")
	res := mustRun(t, cpu.NewRunnerSource(cfg, w, baryonFactory))

	d := res.Stats.Delta(res.MeasureStart)
	if got := d.Get("hierarchy.demandLines"); got != res.Accesses {
		t.Errorf("delta demandLines = %d, want measured accesses %d", got, res.Accesses)
	}
	// Total registry value = warmup + measured, so the delta must be the
	// strictly smaller measurement share.
	if total := res.Stats.Get("hierarchy.demandLines"); d.Get("hierarchy.demandLines") >= total {
		t.Errorf("delta %d not smaller than run total %d despite warmup", d.Get("hierarchy.demandLines"), total)
	}
	// Summed per-device traffic deltas equal the headline traffic.
	var devBytes uint64
	for _, name := range d.CounterNames() {
		if strings.HasSuffix(name, ".bytesRead") || strings.HasSuffix(name, ".bytesWritten") {
			devBytes += d.Get(name)
		}
	}
	if want := res.FastBytes + res.SlowBytes; devBytes != want {
		t.Errorf("delta device traffic %d != headline traffic %d", devBytes, want)
	}

	// With warmup off, MeasureStart is the empty pre-run snapshot and the
	// delta equals the cumulative registry.
	cold := mustRun(t, cpu.NewRunnerSource(smallConfig(), w, baryonFactory))
	cd := cold.Stats.Delta(cold.MeasureStart)
	for _, name := range cd.CounterNames() {
		if cd.Get(name) != cold.Stats.Get(name) {
			t.Errorf("cold-start delta %s = %d, want cumulative %d", name, cd.Get(name), cold.Stats.Get(name))
		}
	}
}

// TestRunnerEpochsOffByDefault: no epoch collection unless configured.
func TestRunnerEpochsOffByDefault(t *testing.T) {
	w, _ := trace.ByName("505.mcf_r")
	res := mustRun(t, cpu.NewRunnerSource(smallConfig(), w, baryonFactory))
	if len(res.Epochs) != 0 {
		t.Fatalf("epochs collected without EpochAccesses: %d", len(res.Epochs))
	}
}
