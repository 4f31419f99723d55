// Command loadgen load-tests a running baryonsimd: concurrent clients drive
// a seeded mix of jobs through the synchronous run endpoint and the harness
// reports how the service fared — cache hit rate, singleflight collapses,
// overload rejections and retries, and the client-observed latency
// distribution.
//
//	go run ./cmd/loadgen -addr http://127.0.0.1:8080 -clients 8 -requests 200
//
// With -verify-bytes every response is checked against the first response
// seen for the same spec hash, proving cache- and collapse-served bundles
// are byte-identical to simulated ones. -min-hit-rate turns the harness
// into a gate: exit non-zero unless enough requests were served without a
// simulation.
//
// With -overload R the harness switches to an open-loop arrival process:
// requests launch at R per second regardless of completions, the shape that
// actually drives a server past capacity (a closed loop self-throttles).
// The client retries 429/503 rejections with capped exponential backoff and
// full jitter, honoring Retry-After; -max-reject-rate then gates on the
// fraction of requests that still failed after retries — with admission
// control and a deterministic cache behind it, an overloaded service should
// converge to zero.
package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"baryon/internal/service"
	"baryon/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flags in, report to
// stdout, diagnostics to stderr, exit code out.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "base URL of the daemon, e.g. http://127.0.0.1:8080 (required)")
	clients := fs.Int("clients", 4, "concurrent client goroutines (closed loop; ignored with -overload)")
	requests := fs.Int("requests", 100, "total requests across all clients")
	designs := fs.String("designs", "Baryon", "comma-separated design mix")
	workloads := fs.String("workloads", "505.mcf_r", "comma-separated workload mix")
	seeds := fs.Int("seeds", 4, "distinct seeds in the job mix (mix size = designs x workloads x seeds)")
	accesses := fs.Int("accesses", 2000, "accesses per core for every job (0 = daemon default)")
	mode := fs.String("mode", "", "job mode: cache|flat (empty = daemon default)")
	seed := fs.Uint64("seed", 1, "RNG seed for the request sequence")
	timeout := fs.Duration("timeout", 0, "overall wall-clock budget (0 = none)")
	verifyBytes := fs.Bool("verify-bytes", false, "assert responses with equal spec hashes are byte-identical")
	minHitRate := fs.Float64("min-hit-rate", -1, "fail unless at least this fraction of requests was served without simulating (-1 = off)")
	overload := fs.Float64("overload", 0, "open-loop arrival rate in requests/sec; launches requests on a clock instead of waiting for completions (0 = closed loop)")
	maxRejectRate := fs.Float64("max-reject-rate", -1, "fail if more than this fraction of requests still failed after retries (-1 = off: any error fails)")
	retries := fs.Int("retries", 5, "max attempts per request including the first; rejections back off with jitter honoring Retry-After (1 = no retries)")
	dumpDir := fs.String("dump-dir", "", "write the first response body per spec hash into this directory as <hash>.json (byte-identity across runs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addr == "" {
		fmt.Fprintln(stderr, "loadgen: -addr is required")
		return 2
	}
	if *clients < 1 || *requests < 1 || *seeds < 1 {
		fmt.Fprintln(stderr, "loadgen: -clients, -requests and -seeds must be >= 1")
		return 2
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *dumpDir != "" {
		if err := os.MkdirAll(*dumpDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "loadgen: %v\n", err)
			return 2
		}
	}

	// The job mix is the cartesian product of designs, workloads and seeds;
	// the request sequence samples it with a seeded RNG, so a given flag set
	// always replays the same load.
	var mix []service.Job
	for _, d := range strings.Split(*designs, ",") {
		for _, w := range strings.Split(*workloads, ",") {
			for s := 0; s < *seeds; s++ {
				mix = append(mix, service.Job{
					Design:   strings.TrimSpace(d),
					Workload: strings.TrimSpace(w),
					Seed:     uint64(s + 1),
					Mode:     *mode,
					Accesses: *accesses,
				})
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(*seed)))
	sequence := make([]service.Job, *requests)
	for i := range sequence {
		sequence[i] = mix[rng.Intn(len(mix))]
	}

	client := &service.Client{
		Base:  strings.TrimRight(*addr, "/"),
		Retry: service.RetryPolicy{MaxAttempts: max(1, *retries)},
	}
	var (
		tallyMu sync.Mutex
		hits    int
		collaps int
		misses  int
		errors  int
		hist    = sim.NewStats().Histogram("loadgen.lat.us")
		// firstBundle maps spec hash -> digest of the first response body,
		// the reference every later same-hash response must match.
		firstBundle sync.Map
		dumped      sync.Map
		mismatches  []string
	)
	oneRequest := func(job service.Job) {
		start := time.Now()
		bundle, status, hash, err := client.RunSync(ctx, job)
		lat := uint64(time.Since(start).Microseconds())
		tallyMu.Lock()
		hist.Observe(lat)
		if err != nil {
			errors++
			// stderr may be a plain buffer in tests; keep writes under the
			// tally lock so concurrent requests don't race on it.
			fmt.Fprintf(stderr, "loadgen: %s/%s seed %d: %v\n", job.Design, job.Workload, job.Seed, err)
			tallyMu.Unlock()
			return
		}
		switch status {
		case "hit":
			hits++
		case "collapsed":
			collaps++
		default:
			misses++
		}
		tallyMu.Unlock()
		if *verifyBytes {
			sum := sha256.Sum256(bundle)
			if prev, loaded := firstBundle.LoadOrStore(hash, sum); loaded && prev != sum {
				tallyMu.Lock()
				mismatches = append(mismatches, hash)
				tallyMu.Unlock()
			}
		}
		if *dumpDir != "" {
			if _, loaded := dumped.LoadOrStore(hash, true); !loaded {
				name := strings.ReplaceAll(hash, ":", "-") + ".json"
				if werr := os.WriteFile(filepath.Join(*dumpDir, name), bundle, 0o644); werr != nil {
					tallyMu.Lock()
					fmt.Fprintf(stderr, "loadgen: dump %s: %v\n", name, werr)
					tallyMu.Unlock()
				}
			}
		}
	}

	var wg sync.WaitGroup
	sent := 0
	if *overload > 0 {
		// Open loop: arrivals on a clock, one goroutine per request. This
		// is deliberately not admission-controlled on the client side — the
		// point is to push the server past capacity and watch it shed load
		// with 429s instead of falling over.
		interval := time.Duration(float64(time.Second) / *overload)
	arrive:
		for _, job := range sequence {
			wg.Add(1)
			go func(j service.Job) {
				defer wg.Done()
				oneRequest(j)
			}(job)
			sent++
			if sent == len(sequence) {
				break
			}
			select {
			case <-time.After(interval):
			case <-ctx.Done():
				break arrive
			}
		}
	} else {
		next := make(chan service.Job)
		for c := 0; c < *clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for job := range next {
					oneRequest(job)
				}
			}()
		}
	feed:
		for _, job := range sequence {
			select {
			case next <- job:
				sent++
			case <-ctx.Done():
				break feed
			}
		}
		close(next)
	}
	wg.Wait()

	if sent < *requests {
		fmt.Fprintf(stderr, "loadgen: cancelled after %d/%d requests\n", sent, *requests)
	}
	hitRate := 0.0
	if sent > 0 {
		hitRate = float64(hits+collaps) / float64(sent)
	}
	// One machine-readable line: scripts/serve_smoke.sh and
	// scripts/chaos_smoke.sh grep these fields.
	fmt.Fprintf(stdout, "requests=%d errors=%d hits=%d collapsed=%d misses=%d hitRate=%.2f rejected=%d retries=%d\n",
		sent, errors, hits, collaps, misses, hitRate, client.Rejected(), client.Retries())
	fmt.Fprintf(stdout, "latency_us: %s\n", hist.Summary())

	fail := false
	if ctx.Err() != nil {
		fail = true
	}
	if *maxRejectRate >= 0 {
		rejectRate := 0.0
		if sent > 0 {
			rejectRate = float64(errors) / float64(sent)
		}
		if rejectRate > *maxRejectRate {
			fail = true
			fmt.Fprintf(stderr, "loadgen: FAIL: %.2f of requests failed after retries, above the allowed %.2f\n",
				rejectRate, *maxRejectRate)
		}
	} else if errors > 0 {
		fail = true
	}
	if len(mismatches) > 0 {
		fail = true
		fmt.Fprintf(stderr, "loadgen: FAIL: %d hash(es) returned non-identical bundle bytes: %s\n",
			len(mismatches), strings.Join(mismatches, ", "))
	}
	if *minHitRate >= 0 && hitRate < *minHitRate {
		fail = true
		fmt.Fprintf(stderr, "loadgen: FAIL: hit rate %.2f below required %.2f\n", hitRate, *minHitRate)
	}
	if fail {
		return 1
	}
	return 0
}
