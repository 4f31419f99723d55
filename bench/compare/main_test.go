package main

import (
	"testing"

	"baryon/bench/doc"
)

func TestJudge(t *testing.T) {
	lower := doc.MetricSpec{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name       string
		b          []float64
		moreFailed bool
		want       string
	}{
		{"identical", []float64{100, 101, 99, 100, 102}, false, "same"},
		{"faster", []float64{80, 81, 79, 80, 82}, false, "better"},
		{"faster but failing", []float64{80, 81, 79, 80, 82}, true, "same"},
		{"slower", []float64{120, 121, 119, 120, 122}, false, "worse"},
		{"slower within bound", []float64{105, 106, 104, 105, 107}, false, "same"},
		{"noisy", []float64{60, 140, 100, 70, 150}, false, "unresolved"},
	} {
		if got := judge(base, tc.b, lower, tc.moreFailed).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	higher := doc.MetricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	if got := judge(base, []float64{80, 81, 79, 80, 82}, higher, false).verdict; got != "worse" {
		t.Errorf("lower throughput: verdict %s, want worse", got)
	}
}
