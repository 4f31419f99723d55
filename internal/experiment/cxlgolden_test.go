package experiment

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"baryon/internal/trace"
)

// tiersGoldenDump renders the three-tier built-ins (the same controllers
// over the DRAM+NVM+CXL topology) with the full dumpDesignRun detail — the
// byte-identity witness for the N-tier engine path, the far-address routing
// windows and the CXL link model.
func tiersGoldenDump() []byte {
	var buf bytes.Buffer
	for _, workload := range []string{"505.mcf_r", "YCSB-A"} {
		for _, design := range []string{DesignUnisonCXL, DesignDICECXL, DesignBaryonCXL} {
			dumpDesignRun(&buf, designGoldenConfig(), workload, design)
		}
	}
	return buf.Bytes()
}

// compareGolden is the shared pin-or-regenerate body of the tier goldens,
// honouring the package's -update-golden flag.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		diffLine(t, name, got, want)
	}
}

// diffLine reports the first line where two dumps diverge.
func diffLine(t *testing.T, label string, got, want []byte) {
	t.Helper()
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s diverges at line %d:\n got: %s\nwant: %s",
				label, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s diverges in length: got %d lines, want %d", label, len(gl), len(wl))
}

// TestDesignsTiersGolden locks the three-tier designs' observable behaviour:
// every counter, histogram and headline metric of the DRAM+NVM+CXL runs.
// Regenerate deliberately with
//
//	go test ./internal/experiment -run DesignsTiersGolden -update-golden
func TestDesignsTiersGolden(t *testing.T) {
	compareGolden(t, "designs_tiers.golden", tiersGoldenDump())
}

// TestCXLSweepGolden pins the cxl experiment's link-bandwidth sweep table,
// so the expander model's queueing, latency and compression accounting stay
// deterministic and refactor-stable end to end.
func TestCXLSweepGolden(t *testing.T) {
	cfg := designGoldenConfig()
	_, table := harness(t, CXLSweep, cfg)
	var buf bytes.Buffer
	table.Render(&buf)
	compareGolden(t, "cxl_quick.golden", buf.Bytes())
}

// TestTierSpecFilesEndToEnd exercises the -design-file path for three-tier
// topologies: the two shipped DRAM+NVM+CXL spec files load, register and run
// end to end, and the results carry a per-tier traffic breakdown with the
// expander tier actually serving traffic.
func TestTierSpecFilesEndToEnd(t *testing.T) {
	w, ok := trace.ByName("505.mcf_r")
	if !ok {
		t.Fatal("workload missing")
	}
	for _, file := range []string{"design_cxl_baryon.json", "design_cxl_unison.json"} {
		spec, err := LoadSpecFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		cfg := designGoldenConfig()
		cfg.AccessesPerCore = 500
		res, err := RunPairCtx(context.Background(), Pair{Cfg: cfg, Workload: w, Design: spec.Name})
		if err != nil {
			t.Fatalf("%s: running %s: %v", file, spec.Name, err)
		}
		if res.Cycles == 0 || res.Instructions == 0 {
			t.Errorf("%s: empty run: %+v", file, res)
		}
		if len(res.TierNames) != 3 || len(res.TierBytes) != 3 {
			t.Fatalf("%s: tier breakdown = %v / %v, want 3 tiers", file, res.TierNames, res.TierBytes)
		}
		if res.TierBytes[0] == 0 {
			t.Errorf("%s: fast tier saw no traffic", file)
		}
		if res.TierBytes[2] == 0 {
			t.Errorf("%s: CXL tier saw no traffic (names %v)", file, res.TierNames)
		}
	}
}
