// Command compare sets two groups of benchmark documents side by side. For
// each workload and end-to-end metric it prints each group's median and
// quartiles, the share of pairs group B won, and a verdict under the
// metric's bound in BENCHMARK.json:
//
//	bash bench/run.sh --seed 1 > a1.json    # parent commit, and so on
//	(cd bench && go run ./compare -a ../a1.json,../a2.json -b ../b1.json,../b2.json)
//
// Group A is the baseline, group B the change; pair i is A[i] against B[i],
// so alternate which side runs first when recording them. The verdicts:
//
//   - better: B wins at least nine tenths of the pairs (ties count for
//     neither), its median is on the better side, the medians differ by more
//     than A's quartile spread, and B failed no more operations than A;
//   - unresolved: either group's quartile spread, as a share of its median,
//     is wider than the bound, and not every B run beats every A run;
//   - worse: B's median is worse than A's by more than the bound;
//   - same: otherwise.
//
// It exits 1 if any metric is worse or unresolved, 2 on bad input.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"

	"baryon/bench/doc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	aList := fs.String("a", "", "comma-separated documents of the baseline (required)")
	bList := fs.String("b", "", "comma-separated documents of the change (required)")
	spec := fs.String("benchmark", "../BENCHMARK.json", "the benchmark declaration holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *aList == "" || *bList == "" {
		fmt.Fprintln(stderr, "compare: -a and -b are required")
		return 2
	}
	bm, err := doc.Load(*spec)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	as, err := readAll(*aList)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	bs, err := readAll(*bList)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tB won\tverdict")
	counts := map[string]int{}
	for _, w := range bm.Workloads {
		moreFailed := failed(bs, w.Name) > failed(as, w.Name)
		for _, m := range bm.EndToEnd {
			a, errA := values(as, w.Name, m.Name)
			b, errB := values(bs, w.Name, m.Name)
			if err := errors.Join(errA, errB); err != nil {
				fmt.Fprintf(stderr, "compare: %v\n", err)
				return 2
			}
			j := judge(a, b, m, moreFailed)
			counts[j.verdict]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n",
				w.Name, m.Name, m.Unit, j.a[1], j.a[0], j.a[2], j.b[1], j.b[0], j.b[2], j.won, j.pairs, j.verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%d better, %d same, %d worse, %d unresolved (%d A and %d B documents)\n",
		counts["better"], counts["same"], counts["worse"], counts["unresolved"], len(as), len(bs))
	if counts["worse"] > 0 || counts["unresolved"] > 0 {
		return 1
	}
	return 0
}

func readAll(list string) ([]doc.Document, error) {
	var out []doc.Document
	for _, p := range strings.Split(list, ",") {
		d, err := doc.ReadDocument(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// values collects one metric of one workload from every document.
func values(ds []doc.Document, workload, metric string) ([]float64, error) {
	var out []float64
	for i, d := range ds {
		m, ok := d.Workloads[workload].Metrics[metric]
		if !ok {
			return nil, fmt.Errorf("document %d of its group has no %s for %s", i+1, metric, workload)
		}
		out = append(out, m.Value)
	}
	return out, nil
}

func failed(ds []doc.Document, workload string) int {
	n := 0
	for _, d := range ds {
		n += d.Workloads[workload].Failed
	}
	return n
}

// judgement is one metric's comparison: quartiles (q1, median, q3) per
// group, pairs won by B, and the verdict.
type judgement struct {
	a, b       [3]float64
	won, pairs int
	verdict    string
}

func judge(a, b []float64, m doc.MetricSpec, moreFailed bool) judgement {
	var j judgement
	j.a[0], j.a[1], j.a[2] = doc.Quartiles(a)
	j.b[0], j.b[1], j.b[2] = doc.Quartiles(b)
	// gain is how much better x is than y, in the metric's direction.
	gain := func(x, y float64) float64 {
		if m.Better == "lower" {
			return y - x
		}
		return x - y
	}
	j.pairs = min(len(a), len(b))
	for i := 0; i < j.pairs; i++ {
		if gain(b[i], a[i]) > 0 {
			j.won++
		}
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && gain(x, y) > 0
		}
	}
	spread := math.Max((j.a[2]-j.a[0])/j.a[1], (j.b[2]-j.b[0])/j.b[1])
	worseBy := -gain(j.b[1], j.a[1]) / j.a[1]
	switch {
	case !moreFailed && float64(j.won) >= 0.9*float64(j.pairs) &&
		gain(j.b[1], j.a[1]) > 0 && math.Abs(j.b[1]-j.a[1]) > j.a[2]-j.a[0]:
		j.verdict = "better"
	case spread > m.Bound && !allBetter:
		j.verdict = "unresolved"
	case worseBy > m.Bound:
		j.verdict = "worse"
	default:
		j.verdict = "same"
	}
	return j
}
