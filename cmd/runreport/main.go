// Command runreport diffs deterministic run-report bundles (see
// internal/report): two bundle files, or two directories of them matched by
// report.Bundle.PairID (design, workload, seed and any configuration change
// other than the run shape). It prints every out-of-tolerance metric change
// and exits non-zero when any pair regressed, which makes it the regression
// gate between two commits' bundle artifacts:
//
//	go run ./cmd/runreport old.bundle.json new.bundle.json
//	go run ./cmd/runreport -tol 0.01 -pct-tol 0.02 baseline/ current/
//
// With zero tolerances (the default) the comparison demands exact equality —
// the right setting for checking that one commit's runs are deterministic.
// Exit status: 0 all pairs clean, 1 differences or unmatched bundles, 2
// usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"baryon/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flags in, report to
// stdout, diagnostics to stderr, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("runreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tol := fs.Float64("tol", 0, "allowed relative change of integer metrics (counters, cycles); 0 = exact")
	pctTol := fs.Float64("pct-tol", 0, "allowed relative change of float metrics (rates, percentiles); 0 = exact")
	quiet := fs.Bool("q", false, "print only regressed pairs and the summary line")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: runreport [flags] <a.bundle.json|dirA> <b.bundle.json|dirB>\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	tolerance := report.Tolerance{CounterRel: *tol, PctRel: *pctTol}

	pathA, pathB := fs.Arg(0), fs.Arg(1)
	bundlesA, err := loadSide(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "runreport: %v\n", err)
		return 2
	}
	bundlesB, err := loadSide(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "runreport: %v\n", err)
		return 2
	}

	// Pair bundles by PairID; bundles present on one side only are
	// themselves findings (a run disappeared or appeared).
	var clean, dirty, unmatched int
	for _, id := range unionIDs(bundlesA, bundlesB) {
		a, okA := bundlesA[id]
		b, okB := bundlesB[id]
		switch {
		case !okA:
			fmt.Fprintf(stdout, "ONLY-B   %s (no baseline bundle)\n", id)
			unmatched++
		case !okB:
			fmt.Fprintf(stdout, "ONLY-A   %s (bundle missing on right side)\n", id)
			unmatched++
		default:
			r := report.Diff(a, b, tolerance)
			if r.Clean() {
				clean++
				if !*quiet {
					fmt.Fprintf(stdout, "OK       %s (spec match: %v)\n", id, r.SpecMatch)
				}
				continue
			}
			dirty++
			fmt.Fprintf(stdout, "DIFF     %s (%d findings, spec match: %v)\n", id, len(r.Findings), r.SpecMatch)
			for _, f := range r.Findings {
				fmt.Fprintf(stdout, "  %s\n", f)
			}
		}
	}
	fmt.Fprintf(stdout, "runreport: %d clean, %d differing, %d unmatched\n", clean, dirty, unmatched)
	if dirty > 0 || unmatched > 0 {
		return 1
	}
	return 0
}

// loadSide loads one comparison side: a single bundle file, or every
// *.bundle.json in a directory, keyed by pair identity.
func loadSide(path string) (map[string]report.Bundle, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]report.Bundle)
	if !info.IsDir() {
		b, err := report.ReadFile(path)
		if err != nil {
			return nil, err
		}
		out[b.PairID()] = b
		return out, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".bundle.json") {
			continue
		}
		b, err := report.ReadFile(filepath.Join(path, e.Name()))
		if err != nil {
			return nil, err
		}
		if prev, dup := out[b.PairID()]; dup && prev.SpecHash != b.SpecHash {
			return nil, fmt.Errorf("%s: two bundles claim pair %s with different spec hashes", path, b.PairID())
		}
		out[b.PairID()] = b
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no *.bundle.json files", path)
	}
	return out, nil
}

func unionIDs(a, b map[string]report.Bundle) []string {
	seen := make(map[string]struct{}, len(a)+len(b))
	var out []string
	for id := range a {
		seen[id] = struct{}{}
		out = append(out, id)
	}
	for id := range b {
		if _, ok := seen[id]; !ok {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
