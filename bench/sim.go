package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"baryon/internal/cpu"
	"baryon/internal/experiment"
	"baryon/internal/report"
)

// digestsJSON maps the name of every sim job at -seed 1 to the sha256 of
// its bundle: a simulator change that alters any simulated number fails
// the seed-1 run. Regenerate with `go test -run TestDigests -update`.
//
//go:embed testdata/digests.json
var digestsJSON []byte

// simJobs lists a sim workload's jobs: every design x workload at each of
// the run seeds the benchmark seed selects, the seeds innermost.
func (b *bench) simJobs() ([]resolved, error) {
	s := b.w.sim
	seeds := make([]uint64, s.seeds)
	for i := range seeds {
		seeds[i] = runSeed(b.seed, i)
	}
	return grid(s.designs, s.workloads, seeds, s.accesses, s.warmup)
}

// runSim sets a sim workload up by running each design and workload once
// at its first run seed (the warm-up pass), then runs the jobs in turn, one
// at a time, until the deadline.
func (b *bench) runSim() error {
	jobs, err := b.simJobs()
	if err != nil {
		return err
	}
	var digests map[string]string
	if b.seed == 1 {
		if err := json.Unmarshal(digestsJSON, &digests); err != nil {
			return fmt.Errorf("testdata/digests.json: %w", err)
		}
	}
	check := func(r resolved, data []byte, err error) error {
		if err == nil {
			err = b.checkRef(r, data)
		}
		if err == nil && digests != nil {
			err = checkDigest(digests, r, data)
		}
		return err
	}
	for i := 0; i < b.reps; i++ {
		t0 := time.Now()
		for j := 0; j < len(jobs); j += b.w.sim.seeds {
			data, err := simRun(b.ctx, jobs[j])
			b.done(check(jobs[j], data, err))
		}
		b.setupDone(t0)
	}

	a0, g0 := memStats()
	b.measure(func(deadline time.Time) {
		for i := 0; b.more(i, deadline); i++ {
			r := jobs[i%len(jobs)]
			// The run seeds of one design and workload take about the
			// same time, so their runs share a latency group.
			group := i % len(jobs) / b.w.sim.seeds
			if b.traced {
				// Each job swaps the order of its traced and untraced
				// runs from one round to the next.
				lat, err := b.tracedPair(0, r, i/len(jobs)%2 == 0)
				b.op(group, lat, err)
				continue
			}
			t0 := time.Now()
			data, err := simRun(b.ctx, r)
			lat := time.Since(t0)
			b.op(group, lat, check(r, data, err))
			b.tick()
		}
	})
	if !b.traced {
		return nil
	}
	a1, g1 := memStats()
	b.lay.runtime(a1-a0, g1-g0)
	return b.serviceSidePass(jobs)
}

// simRun runs a job through experiment.RunPairCtx and renders its
// canonical bundle.
func simRun(ctx context.Context, r resolved) ([]byte, error) {
	res, err := experiment.RunPairCtx(ctx, experiment.Pair{Cfg: r.cfg, Workload: r.w, Design: r.job.Design})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.name(), err)
	}
	return render(r, res)
}

// render builds and marshals a run's bundle.
func render(r resolved, res cpu.Result) ([]byte, error) {
	bd, err := report.New(r.key, res)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.name(), err)
	}
	return bd.MarshalCanonical()
}

func checkDigest(digests map[string]string, r resolved, data []byte) error {
	want, ok := digests[r.name()]
	if !ok {
		return fmt.Errorf("%s: no committed digest in testdata/digests.json", r.name())
	}
	if got := digest(data); got != want {
		return fmt.Errorf("%s: bundle sha256 %s, committed %s", r.name(), got, want)
	}
	return nil
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
