package report

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

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
		spec, ok := experiment.Lookup(p.Design)
		if !ok {
			fmt.Fprintf(errw, "report: design %q not registered, no bundle written\n", p.Design)
			return
		}
		key, err := Key(spec, p.Cfg, p.Workload.Name)
		if err != nil {
			fmt.Fprintf(errw, "report: %v\n", err)
			return
		}
		b, err := New(key, pr.Result)
		if err != nil {
			fmt.Fprintf(errw, "report: %v\n", err)
			return
		}
		if err := WriteFile(filepath.Join(dir, FileName(b)), b); err != nil {
			fmt.Fprintf(errw, "report: %v\n", err)
		}
	}, nil
}
