// Package doc holds the benchmark's file formats: the BENCHMARK.json
// declaration at the root of the repository, the result line one workload
// run prints, and the document a run of all workloads prints. It also holds
// the quartile rule both the benchmark and its comparison tool use.
package doc

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// MetricSpec declares one metric in BENCHMARK.json.
type MetricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// WorkloadSpec names one workload and why the benchmark runs it.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Benchmark is the BENCHMARK.json declaration.
type Benchmark struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

// Limits on BENCHMARK.json.
const (
	MaxWorkloads = 8
	MaxEndToEnd  = 16
	MaxPerLayer  = 128
	MaxBound     = 0.25
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// Load reads and validates a BENCHMARK.json file.
func Load(path string) (Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Benchmark{}, err
	}
	var b Benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return Benchmark{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := b.Validate(); err != nil {
		return Benchmark{}, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// Validate checks names, units, counts and bounds against the limits.
func (b Benchmark) Validate() error {
	if n := len(b.Workloads); n < 2 || n > MaxWorkloads {
		return fmt.Errorf("%d workloads, want 2..%d", n, MaxWorkloads)
	}
	if n := len(b.EndToEnd); n < 1 || n > MaxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, want 1..%d", n, MaxEndToEnd)
	}
	if n := len(b.PerLayer); n < 1 || n > MaxPerLayer {
		return fmt.Errorf("%d per-layer metrics, want 1..%d", n, MaxPerLayer)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1..60", b.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range b.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	for i, m := range append(append([]MetricSpec{}, b.EndToEnd...), b.PerLayer...) {
		if err := use(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better %q, want lower or higher", m.Name, m.Better)
		}
		if i < len(b.EndToEnd) && (m.Bound <= 0 || m.Bound > MaxBound) {
			return fmt.Errorf("metric %s: bound %v, want (0, %v]", m.Name, m.Bound, MaxBound)
		}
	}
	return nil
}

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a single-workload run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Host is the shape of the machine a run measured on.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	TempFS     string `json:"temp_fs"`
}

// Detail is the line a single-workload run prints before its result: what
// was run and how much of it, so a run that fell short is visible.
type Detail struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Clients  int     `json:"clients"`
	Host     Host    `json:"host"`
	Ops      int     `json:"ops"`
	WallS    float64 `json:"wall_s"`
	// SetupS lists every set-up repetition; setup_s is their median.
	SetupS []float64 `json:"setup_s"`
	// Samples maps each timing metric to the number of samples behind it.
	Samples map[string]int `json:"samples"`
	// HostFactor is how much slower than the quiet sizing host the host
	// ran, by the calibration kernel; the end-to-end times are the wall
	// clock's divided by it, the rates multiplied by it. WallClock holds
	// the unscaled values. Traced runs have neither.
	HostFactor float64            `json:"host_factor,omitempty"`
	WallClock  map[string]float64 `json:"wall_clock_metrics,omitempty"`
	// OutsideLoop lists, in a traced run, the per-layer metrics measured
	// outside the workload's loop, in its set-up or in a pass after it,
	// because the loop does not cross their layer.
	OutsideLoop []string `json:"outside_loop_metrics,omitempty"`
	Failures    []string `json:"failures,omitempty"`
}

// Run is one workload's entry in a Document.
type Run struct {
	Result
	Detail Detail `json:"detail"`
}

// Document is what a run of every workload prints: one Run per workload.
type Document struct {
	Seed      uint64         `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Trace     bool           `json:"trace"`
	Host      Host           `json:"host"`
	Correct   bool           `json:"correct"`
	Workloads map[string]Run `json:"workloads"`
}

// ReadDocument loads a Document written by a run of every workload.
func ReadDocument(path string) (Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Document{}, err
	}
	var d Document
	if err := json.Unmarshal(data, &d); err != nil {
		return Document{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Workloads) == 0 {
		return Document{}, fmt.Errorf("%s: no workloads", path)
	}
	return d, nil
}

// Quartiles returns the first, second and third quartiles of values by the
// rule of Python's statistics.quantiles(values, n=4), the "exclusive"
// method, so spreads computed here match ones computed with that function.
// It needs at least two values; with one it returns that value three times.
func Quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
