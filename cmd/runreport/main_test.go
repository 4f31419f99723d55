package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"baryon/internal/config"
	"baryon/internal/experiment"
	"baryon/internal/report"
	"baryon/internal/trace"
)

// writeBundle runs one quick simulation and writes its bundle into dir,
// returning the file path.
func writeBundle(t *testing.T, dir, design string, seed uint64, mutate func(*report.Bundle)) string {
	t.Helper()
	cfg := config.Scaled()
	cfg.AccessesPerCore = 800
	cfg.Seed = seed
	w, _ := trace.ByName("505.mcf_r")
	spec, ok := experiment.Lookup(design)
	if !ok {
		t.Fatalf("unknown design %q", design)
	}
	res, err := experiment.RunPairCtx(context.Background(), experiment.Pair{Cfg: cfg, Workload: w, Design: design})
	if err != nil {
		t.Fatal(err)
	}
	key, err := report.Key(spec, cfg, w.Name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := report.New(key, res)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(&b)
	}
	path := filepath.Join(dir, report.FileName(b))
	if err := report.WriteFile(path, b); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestRunreportSelfDiff(t *testing.T) {
	dir := t.TempDir()
	path := writeBundle(t, dir, "Simple", 1, nil)
	code, out, errw := runCLI(t, path, path)
	if code != 0 {
		t.Fatalf("self-diff exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errw)
	}
	if !strings.Contains(out, "1 clean, 0 differing, 0 unmatched") {
		t.Fatalf("summary wrong:\n%s", out)
	}
}

func TestRunreportDetectsRegression(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	writeBundle(t, dirA, "Simple", 1, nil)
	writeBundle(t, dirB, "Simple", 1, func(b *report.Bundle) {
		b.Counters["hierarchy.llcMisses"] += 50
	})
	code, out, _ := runCLI(t, dirA, dirB)
	if code != 1 {
		t.Fatalf("regression diff exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "hierarchy.llcMisses") {
		t.Fatalf("finding does not name the regressed counter:\n%s", out)
	}

	// Within tolerance the same pair is clean.
	code, out, _ = runCLI(t, "-tol", "0.5", "-pct-tol", "0.5", dirA, dirB)
	if code != 0 {
		t.Fatalf("tolerant diff exit %d, want 0\n%s", code, out)
	}
}

func TestRunreportDirectoryPairing(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	writeBundle(t, dirA, "Simple", 1, nil)
	writeBundle(t, dirA, "Simple", 2, nil)
	writeBundle(t, dirB, "Simple", 1, nil)
	// Seed 2 exists only on side A: unmatched, non-zero exit.
	code, out, _ := runCLI(t, dirA, dirB)
	if code != 1 {
		t.Fatalf("unmatched diff exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "ONLY-A") || !strings.Contains(out, "1 clean, 0 differing, 1 unmatched") {
		t.Fatalf("unmatched pair not reported:\n%s", out)
	}
}

func TestRunreportUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Fatal("no args should exit 2")
	}
	if code, _, _ := runCLI(t, "one-path-only"); code != 2 {
		t.Fatal("one arg should exit 2")
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "x.bundle.json"), []byte("{not json"), 0o644)
	if code, _, _ := runCLI(t, dir, dir); code != 2 {
		t.Fatal("corrupt bundle should exit 2")
	}
	if code, _, _ := runCLI(t, t.TempDir(), t.TempDir()); code != 2 {
		t.Fatal("empty directory should exit 2")
	}
}
