package main

import (
	"encoding/json"
	"fmt"

	"baryon/internal/config"
	"baryon/internal/experiment"
	"baryon/internal/report"
	"baryon/internal/service"
	"baryon/internal/trace"
)

// The serve workloads have one closed-loop client. It has at most
// maxInFlight requests out at once: the two copies of a fresh job. On the
// shared 2-CPU host the benchmark was sized on, a second client doubled the
// spread between runs, because its requests queued behind the first's for
// CPU. The benchmark refuses to run on a host with fewer CPUs than
// maxInFlight.
const maxInFlight = 2

// A workload is either a simulator loop (sim) or a traffic mix sent to an
// in-process baryonsimd (serve). BENCHMARK.json records why each is run.
type workload struct {
	name  string
	sim   *simSpec
	serve *serveSpec
}

// simSpec is a closed loop of single runs through experiment.RunPairCtx,
// the entry point baryonsim, sweep and the service share, cycling over
// designs x workloads x seeds run seeds. Each run renders its canonical
// bundle, as every caller of that entry point does. How long a run takes
// depends on its seed by up to about 10%, so a run of the benchmark
// averages over several.
type simSpec struct {
	designs, workloads      []string
	seeds, accesses, warmup int
}

// serveSpec is a request mix sent by the client over loopback HTTP. The
// warm keys (designs x workloads x seeds) are simulated into the service's
// store during set-up. With freshEvery > 0, each block of freshEvery
// requests holds, at a place drawn from the seed, one job no one has asked
// for yet, sent twice at once so the second copy collapses into the first.
// A fixed count per block, rather than a coin flip per request, keeps the
// number of simulations in a run, which sets its speed, the same from seed
// to seed.
type serveSpec struct {
	designs, workloads []string
	seeds, accesses    int

	freshEvery                   int
	freshDesigns, freshWorkloads []string
	freshAccesses, freshWarmup   int
}

// serveStoreEntries is the in-memory LRU size of the serve workloads'
// service: 4x smaller than serve-hit's 128 keys, so most hits there are
// disk reads that re-verify and decode the stored bundle.
const serveStoreEntries = 32

var workloads = []workload{
	// 40 to 50% of the run time is inside the Baryon controller (compression,
	// stage and commit, remap, metadata lookups); YCSB-A adds compressed
	// writebacks beside reads.
	{name: "sim-baryon", sim: &simSpec{
		designs:   []string{experiment.DesignBaryon},
		workloads: []string{"505.mcf_r", "549.fotonik3d_r", "pr.twi", "YCSB-A"},
		seeds:     4, accesses: 2000, warmup: 500,
	}},
	// No compression: the runner and the cache hierarchy take most of the
	// time, so a compression-only change must not move this workload.
	{name: "sim-baselines", sim: &simSpec{
		designs:   []string{experiment.DesignSimple, experiment.DesignUnison},
		workloads: []string{"519.lbm_r", "YCSB-B"},
		seeds:     4, accesses: 2000, warmup: 500,
	}},
	// The two serve mixes are synthetic probes chosen to isolate layers, not
	// a model of real traffic: no recorded baryonsimd traffic exists to
	// derive or validate them from.
	//
	// No simulation at all: HTTP, the result store and bundle decoding.
	{name: "serve-hit", serve: &serveSpec{
		designs:   []string{experiment.DesignBaryon, experiment.DesignUnison},
		workloads: []string{"505.mcf_r", "519.lbm_r"},
		seeds:     32, accesses: 500,
	}},
	// Misses simulate and write the store beside cheap hits.
	{name: "serve-mixed", serve: &serveSpec{
		designs:   []string{experiment.DesignBaryon, experiment.DesignUnison},
		workloads: []string{"505.mcf_r", "519.lbm_r"},
		seeds:     8, accesses: 500,
		freshEvery:     10,
		freshDesigns:   []string{experiment.DesignBaryon, experiment.DesignDICE},
		freshWorkloads: []string{"505.mcf_r", "YCSB-A"},
		freshAccesses:  1000, freshWarmup: 250,
	}},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runSeed derives the i-th run seed of a benchmark seed.
func runSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) }

// resolved is a job with everything the benchmark needs to run and check
// it: the configuration, its spec hash and its HTTP request body.
type resolved struct {
	job  service.Job
	cfg  config.Config
	w    trace.Workload
	key  report.SpecKey
	hash string
	body []byte
}

// resolve computes a job's configuration and spec hash the way the service
// does, independently of it, so the hash the service reports can be
// checked.
func resolve(j service.Job) (resolved, error) {
	spec, ok := experiment.Lookup(j.Design)
	if !ok {
		return resolved{}, experiment.UnknownDesignError(j.Design)
	}
	w, ok := trace.ByName(j.Workload)
	if !ok {
		return resolved{}, fmt.Errorf("unknown workload %q", j.Workload)
	}
	cfg := config.Scaled()
	cfg.Seed = j.Seed
	cfg.AccessesPerCore = j.Accesses
	cfg.WarmupAccessesPerCore = j.Warmup
	key, err := report.Key(spec, cfg, w.Name)
	if err != nil {
		return resolved{}, err
	}
	hash, err := key.Hash()
	if err != nil {
		return resolved{}, err
	}
	body, err := json.Marshal(j)
	if err != nil {
		return resolved{}, err
	}
	return resolved{job: j, cfg: cfg, w: w, key: key, hash: hash, body: body}, nil
}

// name is the job's human-readable identity, used in failures and digests.
func (r resolved) name() string {
	return fmt.Sprintf("%s/%s/seed%d/%d+%d", r.job.Design, r.job.Workload, r.job.Seed, r.job.Accesses, r.job.Warmup)
}

// grid resolves designs x workloads x seeds.
func grid(designs, names []string, seeds []uint64, accesses, warmup int) ([]resolved, error) {
	var out []resolved
	for _, d := range designs {
		for _, w := range names {
			for _, s := range seeds {
				r, err := resolve(service.Job{Design: d, Workload: w, Seed: s, Accesses: accesses, Warmup: warmup})
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
		}
	}
	return out, nil
}
