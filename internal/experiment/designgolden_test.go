package experiment

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/trace"
)

// designGoldenConfig is the fixed configuration behind the cross-design
// golden file. Like goldenConfig it must never change: the dump below is the
// byte-identity witness that porting controllers onto the shared kit (the
// hybrid.Dir/Replacer/Engine layer) did not alter any controller's
// behaviour, down to individual counter values and latency histograms.
func designGoldenConfig() config.Config {
	cfg := config.Scaled()
	cfg.AccessesPerCore = 1500
	cfg.Seed = 1
	return cfg
}

// designGoldenRuns lists every (design, mode) pair the golden file pins:
// all cache-scheme designs plus the flat-scheme variants.
func designGoldenRuns() []struct {
	design string
	mode   config.Mode
} {
	return []struct {
		design string
		mode   config.Mode
	}{
		{DesignSimple, config.ModeCache},
		{DesignUnison, config.ModeCache},
		{DesignDICE, config.ModeCache},
		{DesignBaryon, config.ModeCache},
		{DesignBaryon64B, config.ModeCache},
		{DesignHybrid2, config.ModeCache},
		{DesignOSPaging, config.ModeCache},
		{DesignBaryon, config.ModeFlat},
		{DesignBaryonFA, config.ModeFlat},
		{DesignHybrid2, config.ModeFlat},
	}
}

// dumpDesignRun renders one run's full observable state: headline metrics,
// every counter, every float accumulator and every histogram, with names
// sorted so the dump pins values rather than registration order.
func dumpDesignRun(buf *bytes.Buffer, cfg config.Config, workload, design string) {
	w, ok := trace.ByName(workload)
	if !ok {
		panic("designgolden: unknown workload " + workload)
	}
	res, err := RunPairCtx(context.Background(), Pair{Cfg: cfg, Workload: w, Design: design})
	if err != nil {
		panic(fmt.Sprintf("designgolden: %s/%s: %v", workload, design, err))
	}
	fmt.Fprintf(buf, "== design=%s mode=%s workload=%s\n", design, cfg.Mode, workload)
	fmt.Fprintf(buf, "cycles=%d instructions=%d\n", res.Cycles, res.Instructions)
	fmt.Fprintf(buf, "fastServeRate=%.6f bloatFactor=%.6f\n", res.FastServeRate, res.BloatFactor)
	fmt.Fprintf(buf, "fastBytes=%d slowBytes=%d energyPJ=%.1f\n", res.FastBytes, res.SlowBytes, res.EnergyPJ)
	measured := res.Stats.Delta(res.MeasureStart)
	fmt.Fprintf(buf, "meanRangeCF=%.6f remapCacheHitRate=%.6f\n", core.MeanRangeCF(measured), core.RemapCacheHitRate(measured))

	names := res.Stats.Names()
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(buf, "counter %s=%d\n", name, res.Stats.Get(name))
	}
	fnames := res.Stats.FloatNames()
	sort.Strings(fnames)
	for _, name := range fnames {
		fmt.Fprintf(buf, "float %s=%.3f\n", name, res.Stats.GetFloat(name))
	}
	snap := res.Stats.Snapshot()
	for _, name := range snap.HistNames() {
		h, _ := snap.Hist(name)
		fmt.Fprintf(buf, "hist %s count=%d sum=%d max=%d\n", name, h.Count(), h.Sum(), h.Summary().Max)
	}
}

// designGoldenDump renders the full cross-design dump: every (design, mode)
// pair over two workloads with different write ratios and value mixes.
func designGoldenDump() []byte {
	var buf bytes.Buffer
	for _, workload := range []string{"505.mcf_r", "YCSB-A"} {
		for _, run := range designGoldenRuns() {
			cfg := designGoldenConfig()
			cfg.Mode = run.mode
			dumpDesignRun(&buf, cfg, workload, run.design)
		}
	}
	return buf.Bytes()
}

// TestDesignsGolden locks every controller's observable behaviour across
// both schemes. The refactor that moved all controllers onto the shared
// hybrid kit (directory, replacement policies, migration engine) was
// performed under this pin; any future restructuring must keep it green or
// regenerate deliberately with
//
//	go test ./internal/experiment -run DesignsGolden -update-golden
func TestDesignsGolden(t *testing.T) {
	path := filepath.Join("testdata", "designs_quick.golden")
	got := designGoldenDump()
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
				t.Fatalf("design dump diverges from golden at line %d:\n got: %s\nwant: %s",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("design dump diverges from golden in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// ablationGoldenPoints lists the non-default Baryon policies the ablation
// golden pins: each point mutates designGoldenConfig, so a dump differs from
// the designs_quick Baryon runs only by that policy. The super-block sizes
// are Fig. 13(b)'s sweep, and fa-cache is Baryon-FA in cache mode; both
// pin the slot decode on super-blocks that span several frames.
func ablationGoldenPoints() []struct {
	name string
	mut  func(*config.Config)
} {
	return []struct {
		name string
		mut  func(*config.Config)
	}{
		{"no-stage", func(c *config.Config) { c.UseStageArea = false }},
		{"no-stage-flat", func(c *config.Config) { c.UseStageArea = false; c.Mode = config.ModeFlat }},
		{"sub-block-only", func(c *config.Config) { c.TwoLevelReplacement = false }},
		{"commit-all", func(c *config.Config) { c.CommitAll = true }},
		{"k=0", func(c *config.Config) { c.CommitK = 0 }},
		{"k=inf", func(c *config.Config) { c.CommitK = -1 }},
		{"no-compressed-writeback", func(c *config.Config) { c.CompressedWriteback = false }},
		{"no-zero-block", func(c *config.Config) { c.ZeroBlockOpt = false }},
		{"unaligned", func(c *config.Config) { c.CachelineAligned = false }},
		{"super=1", func(c *config.Config) { c.SuperBlockBlocks = 1 }},
		{"super=2", func(c *config.Config) { c.SuperBlockBlocks = 2 }},
		{"super=32", func(c *config.Config) { c.SuperBlockBlocks = 32 }},
		{"fa-cache", func(c *config.Config) { c.FullyAssociative = true }},
	}
}

// TestAblationsGolden locks Baryon's observable behaviour under every
// ablation knob the evaluation sweeps (Figs. 12 and 13): the no-stage-area
// insert path, sub-block-only stage replacement, the commit-policy
// extremes, the compression optimisations switched off, the super-block
// sizes and the fully-associative cache area. Regenerate
// deliberately with
//
//	go test ./internal/experiment -run AblationsGolden -update-golden
func TestAblationsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, workload := range []string{"505.mcf_r", "YCSB-A"} {
		for _, p := range ablationGoldenPoints() {
			cfg := designGoldenConfig()
			p.mut(&cfg)
			fmt.Fprintf(&buf, "-- point=%s\n", p.name)
			dumpDesignRun(&buf, cfg, workload, DesignBaryon)
		}
	}
	compareGolden(t, "ablations_quick.golden", buf.Bytes())
}
