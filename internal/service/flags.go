package service

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"baryon/internal/experiment"
	"baryon/internal/report"
)

// FlagOpt selects which of the shared CLI flags RegisterFlags installs.
// The -timeout/-bundle-dir/-design-file plumbing used to be copied across
// cmd/baryonsim, cmd/sweep and cmd/experiments; it lives here once now.
type FlagOpt uint

const (
	// FlagTimeout registers -timeout (overall wall-clock budget).
	FlagTimeout FlagOpt = 1 << iota
	// FlagBundleDir registers -bundle-dir (per-run report bundles).
	FlagBundleDir
	// FlagDesignFile registers the singular -design-file (cmd/baryonsim).
	FlagDesignFile
	// FlagDesignFiles registers the plural -design-files (cmd/sweep).
	FlagDesignFiles
	// FlagParallel registers -parallel (experiment worker count).
	FlagParallel
)

// Flags holds the parsed values of the shared CLI flags.
type Flags struct {
	Timeout   time.Duration
	BundleDir string
	Parallel  int

	// Specs are the designs loaded from -design-file/-design-files by
	// Setup, already registered and runnable by name.
	Specs []experiment.DesignSpec

	designFiles string
}

// RegisterFlags installs the selected shared flags on fs. timeoutUsage is
// the full -timeout help text (each command describes its own expiry
// behavior); ignored unless FlagTimeout is selected.
func RegisterFlags(fs *flag.FlagSet, which FlagOpt, timeoutUsage string) *Flags {
	f := &Flags{}
	if which&FlagTimeout != 0 {
		fs.DurationVar(&f.Timeout, "timeout", 0, timeoutUsage)
	}
	if which&FlagBundleDir != 0 {
		fs.StringVar(&f.BundleDir, "bundle-dir", "",
			"write one deterministic report bundle per successful run into this directory (diff with cmd/runreport)")
	}
	if which&FlagDesignFile != 0 {
		fs.StringVar(&f.designFiles, "design-file", "",
			"JSON DesignSpec file defining a custom design (runs it unless -design overrides)")
	}
	if which&FlagDesignFiles != 0 {
		fs.StringVar(&f.designFiles, "design-files", "",
			"comma-separated JSON DesignSpec files; loaded designs are appended to the sweep")
	}
	if which&FlagParallel != 0 {
		fs.IntVar(&f.Parallel, "parallel", 0, "worker count for concurrent runs (0 = GOMAXPROCS)")
	}
	return f
}

// Setup applies the parsed flags to a command lifecycle: it wraps ctx in
// the -timeout deadline, loads and registers every -design-file(s) spec
// (exposed as Specs), and returns the experiment.Options for the command's
// batches: -parallel as Workers and the -bundle-dir bundle writer as
// Observe. A negative -parallel or -timeout is an error naming the flag.
// The returned cancel releases the deadline; it is safe to skip on process
// exit.
func (f *Flags) Setup(ctx context.Context, errw io.Writer) (context.Context, experiment.Options, context.CancelFunc, error) {
	opts := experiment.Options{Workers: f.Parallel}
	if f.Parallel < 0 {
		return ctx, opts, func() {}, fmt.Errorf("-parallel must be >= 0, got %d", f.Parallel)
	}
	if f.Timeout < 0 {
		return ctx, opts, func() {}, fmt.Errorf("-timeout must be >= 0, got %v", f.Timeout)
	}
	if f.designFiles != "" {
		for _, path := range strings.Split(f.designFiles, ",") {
			spec, err := experiment.LoadSpecFile(strings.TrimSpace(path))
			if err != nil {
				return ctx, opts, func() {}, fmt.Errorf("loading design file: %w", err)
			}
			f.Specs = append(f.Specs, spec)
		}
	}
	if f.BundleDir != "" {
		observe, err := report.ObservePairs(f.BundleDir, errw)
		if err != nil {
			return ctx, opts, func() {}, fmt.Errorf("bundle dir: %w", err)
		}
		opts.Observe = observe
	}
	cancel := context.CancelFunc(func() {})
	if f.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, f.Timeout)
	}
	return ctx, opts, cancel, nil
}
