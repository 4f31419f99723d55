package report

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"baryon/internal/cpu"
	"baryon/internal/experiment"
)

// ObservePairs creates dir and returns an experiment pair observer (for
// experiment.Options.Observe) that writes one bundle per successful run into
// it, named by FileName. Distinct pairs write distinct files, so the
// observer is safe under the experiment worker pool without locking; bundle
// build or write failures are reported to errw and do not affect the runs
// themselves. It sees only the batches whose Options carry it.
func ObservePairs(dir string, errw io.Writer) (func(experiment.Pair, experiment.PairResult), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return func(p experiment.Pair, pr experiment.PairResult) {
		b, err := PairBundle(p, pr.Result)
		if err == nil {
			err = WriteFile(filepath.Join(dir, FileName(b)), b)
		}
		if err != nil {
			fmt.Fprintf(errw, "report: %v\n", err)
		}
	}, nil
}

// PairBundle builds the bundle of one completed pair: the pair's registered
// design and config keyed with the workload the result names (a replayed
// trace keys under its own name, not the synthetic workload's).
func PairBundle(p experiment.Pair, res cpu.Result) (Bundle, error) {
	spec, ok := experiment.Lookup(p.Design)
	if !ok {
		return Bundle{}, fmt.Errorf("design %q not registered", p.Design)
	}
	key, err := Key(spec, p.Cfg, res.Workload)
	if err != nil {
		return Bundle{}, err
	}
	return New(key, res)
}
