package experiment

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"baryon/internal/config"
	"baryon/internal/obs"
	"baryon/internal/trace"
)

// parallelConfig is smaller than quickConfig: the determinism tests run the
// same grid twice (serial and parallel) and under -race.
func parallelConfig() config.Config {
	cfg := quickConfig()
	cfg.AccessesPerCore = 800
	return cfg
}

// TestParallelismClamp pins how Options.Workers resolves: a negative or zero
// count becomes one worker per CPU, an explicit count is kept, and no batch
// gets more workers than it has jobs.
func TestParallelismClamp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, w := range []int{-3, 0} {
		if got := (Options{Workers: w}).workers(1 << 20); got != procs {
			t.Fatalf("Workers=%d: resolved %d workers, want GOMAXPROCS=%d", w, got, procs)
		}
	}
	if got := (Options{Workers: 7}).workers(100); got != 7 {
		t.Fatalf("Workers=7: resolved %d workers, want 7", got)
	}
	if got := (Options{Workers: 7}).workers(3); got != 3 {
		t.Fatalf("Workers=7 over 3 jobs: resolved %d workers, want 3", got)
	}
	if got := (Options{Workers: -3}).workers(1); got != 1 {
		t.Fatalf("Workers=-3 over 1 job: resolved %d workers, want 1", got)
	}
}

// workerCounts are the Options.Workers values the determinism tests compare:
// serial, four workers, and a negative count (one worker per CPU).
var workerCounts = []int{1, 4, -3}

// TestRunPairsDeterministic asserts the tentpole guarantee: the parallel
// engine produces byte-for-byte the results of serial execution, slotted in
// submission order regardless of completion order.
func TestRunPairsDeterministic(t *testing.T) {
	cfg := parallelConfig()
	workloads := trace.Representative()
	designs := []string{DesignUnison, DesignDICE, DesignBaryon}
	var pairs []Pair
	for _, w := range workloads {
		for _, d := range designs {
			pairs = append(pairs, Pair{Cfg: cfg, Workload: w, Design: d})
		}
	}

	serial, err := runPairs(context.Background(), Options{Workers: 1}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts[1:] {
		parallel, err := runPairs(context.Background(), Options{Workers: workers}, pairs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(serial) != len(parallel) {
			t.Fatalf("workers=%d: result count: serial=%d parallel=%d", workers, len(serial), len(parallel))
		}
		for i := range serial {
			s, p := serial[i], parallel[i]
			if s.Workload != p.Workload || s.Design != p.Design {
				t.Fatalf("workers=%d pair %d: slot order differs: serial=%s/%s parallel=%s/%s",
					workers, i, s.Workload, s.Design, p.Workload, p.Design)
			}
			if s.Cycles != p.Cycles || s.Instructions != p.Instructions ||
				s.FastServeRate != p.FastServeRate || s.BloatFactor != p.BloatFactor ||
				s.EnergyPJ != p.EnergyPJ {
				t.Errorf("workers=%d pair %d (%s/%s): serial and parallel results differ:\nserial:   %+v\nparallel: %+v",
					workers, i, s.Workload, s.Design, s, p)
			}
			if s.Stats.String() != p.Stats.String() {
				t.Errorf("workers=%d pair %d (%s/%s): stats differ", workers, i, s.Workload, s.Design)
			}
		}
	}
}

// TestFig9TableDeterministic renders a full figure serially and with each
// parallel worker count and requires the rendered tables to match exactly.
func TestFig9TableDeterministic(t *testing.T) {
	cfg := parallelConfig()

	render := func(workers int) string {
		_, tab, err := Fig9(context.Background(), Options{Workers: workers}, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var sb strings.Builder
		tab.Render(&sb)
		return sb.String()
	}
	serial := render(1)
	for _, workers := range workerCounts[1:] {
		if parallel := render(workers); serial != parallel {
			t.Fatalf("Fig9 table differs between serial and workers=%d runs:\n--- serial ---\n%s\n--- parallel ---\n%s", workers, serial, parallel)
		}
	}
}

// TestRunPairPublishesDesignName pins the run label: a design that shares
// its controller kind with another (Baryon-CXL is the baryon kind) is
// published live and reported under its own name, not the controller's.
func TestRunPairPublishesDesignName(t *testing.T) {
	w, _ := trace.ByName("505.mcf_r")
	in := &obs.Introspector{}
	res, err := RunPairCtx(context.Background(), Pair{
		Cfg: parallelConfig(), Workload: w, Design: DesignBaryonCXL,
		Obs: &RunObs{Introspector: in},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := in.Latest()
	if st == nil {
		t.Fatal("no RunStatus published")
	}
	if st.Design != DesignBaryonCXL || res.Design != DesignBaryonCXL {
		t.Fatalf("published design %q, result design %q, want %q", st.Design, res.Design, DesignBaryonCXL)
	}
}
