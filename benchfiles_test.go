package baryon

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchRecord is a committed BENCH_<n>.json: the benchmark runs behind one
// change's speed claim, as `bash bench/run.sh` printed them. A holds the
// parent commit's documents and B the change's; pair i is A[i] against
// B[i], so a reader can re-judge them with bench/compare.
type benchRecord struct {
	Change  string     `json:"change"`
	Command string     `json:"command"`
	A       []benchDoc `json:"a"`
	B       []benchDoc `json:"b"`
}

// benchDoc is the part of a bench/run.sh document this test checks.
type benchDoc struct {
	Host      map[string]any `json:"host"`
	Workloads map[string]struct {
		Correct *bool `json:"correct"`
		Metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	} `json:"workloads"`
}

// TestBenchFiles decodes every committed BENCH_*.json and checks it against
// BENCHMARK.json: every workload it names is declared there, and every
// metric carries a value and the declared unit. So a renamed workload or
// metric cannot leave a recorded trajectory that no longer says what it
// measured.
func TestBenchFiles(t *testing.T) {
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	readJSON(t, "BENCHMARK.json", &spec)
	workloads := map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	units := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		units[m.Name] = m.Unit
	}

	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		var rec benchRecord
		readJSON(t, path, &rec)
		if rec.Change == "" || rec.Command == "" {
			t.Errorf("%s: no change or command", path)
		}
		if len(rec.A) == 0 || len(rec.A) != len(rec.B) {
			t.Errorf("%s: %d baseline and %d change documents, want equal non-zero counts", path, len(rec.A), len(rec.B))
		}
		for side, docs := range map[string][]benchDoc{"a": rec.A, "b": rec.B} {
			for i, d := range docs {
				if len(d.Host) == 0 || len(d.Workloads) == 0 {
					t.Errorf("%s: %s[%d] has no host or no workloads", path, side, i)
				}
				for name, run := range d.Workloads {
					if !workloads[name] {
						t.Errorf("%s: %s[%d]: workload %q is not in BENCHMARK.json", path, side, i, name)
					}
					if run.Correct == nil || len(run.Metrics) == 0 {
						t.Errorf("%s: %s[%d] %s: no correct flag or no metrics", path, side, i, name)
					}
					for m, v := range run.Metrics {
						unit, ok := units[m]
						switch {
						case !ok:
							t.Errorf("%s: %s[%d] %s: metric %q is not in BENCHMARK.json", path, side, i, name, m)
						case v.Unit != unit:
							t.Errorf("%s: %s[%d] %s: metric %s in %q, BENCHMARK.json says %q", path, side, i, name, m, v.Unit, unit)
						case v.Value == nil:
							t.Errorf("%s: %s[%d] %s: metric %s has no value", path, side, i, name, m)
						}
					}
				}
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
