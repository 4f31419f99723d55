package experiment

import (
	"context"
	"slices"
	"sync"
	"testing"

	"baryon/internal/trace"
)

// observerPairs is a small batch of Baryon runs on distinct seeds
// [first, first+n), so an observer can tell exactly which pairs it saw.
func observerPairs(accesses, first, n int) []Pair {
	c := parallelConfig()
	c.AccessesPerCore = accesses
	w, _ := trace.ByName("505.mcf_r")
	pairs := make([]Pair, n)
	for i := range pairs {
		c.Seed = uint64(first + i)
		pairs[i] = Pair{Cfg: c, Workload: w, Design: DesignBaryon}
	}
	return pairs
}

// recordSeeds returns a goroutine-safe Options.Observe that records the seed
// of every pair it sees, and a func returning those seeds in order.
func recordSeeds() (func(Pair, PairResult), func() []uint64) {
	var mu sync.Mutex
	var seeds []uint64
	observe := func(p Pair, _ PairResult) {
		mu.Lock()
		defer mu.Unlock()
		seeds = append(seeds, p.Cfg.Seed)
	}
	return observe, func() []uint64 {
		mu.Lock()
		defer mu.Unlock()
		slices.Sort(seeds)
		return slices.Clone(seeds)
	}
}

// runBatch runs pairs under o and checks that wantOK of them succeeded.
func runBatch(t *testing.T, o Options, pairs []Pair, wantOK int) {
	t.Helper()
	ok := 0
	for _, pr := range RunPairsCtx(context.Background(), o, pairs) {
		if pr.Err == nil {
			ok++
		}
	}
	if ok != wantOK {
		t.Errorf("%d of %d pairs succeeded, want %d", ok, len(pairs), wantOK)
	}
}

// TestPairObserverMultipleOwners: an observer belongs to its batch. It sees
// exactly that batch's successful pairs (a failed pair is not observed), and
// a later batch run with another observer or with zero Options — the job
// server's path — never reaches it.
func TestPairObserverMultipleOwners(t *testing.T) {
	observeA, seenA := recordSeeds()
	observeB, seenB := recordSeeds()
	pairs := observerPairs(400, 1, 3)
	failing := append(slices.Clone(pairs), Pair{Cfg: pairs[0].Cfg, Workload: pairs[0].Workload, Design: "No-Such-Design"})
	runBatch(t, Options{Workers: 2, Observe: observeA}, failing, 3)
	runBatch(t, Options{Workers: 2, Observe: observeB}, observerPairs(400, 10, 2), 2)
	runBatch(t, Options{}, pairs, 3)
	if got, want := seenA(), []uint64{1, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("observer A saw seeds %v, want %v", got, want)
	}
	if got, want := seenB(), []uint64{10, 11}; !slices.Equal(got, want) {
		t.Errorf("observer B saw seeds %v, want %v", got, want)
	}
}

// TestPairObserverConcurrentOwners runs batches with different observers
// concurrently, beside a zero-Options batch: each observer sees exactly its
// own batch's pairs, none of its neighbours'. Under -race it also checks
// that batches share no observer state.
func TestPairObserverConcurrentOwners(t *testing.T) {
	const owners = 3
	seen := make([]func() []uint64, owners)
	var wg sync.WaitGroup
	for g := 0; g <= owners; g++ {
		o := Options{Workers: 2}
		if g < owners {
			o.Observe, seen[g] = recordSeeds()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			runBatch(t, o, observerPairs(200, 100*(g+1), 2), 2)
		}()
	}
	wg.Wait()
	for g := range seen {
		if got, want := seen[g](), []uint64{uint64(100 * (g + 1)), uint64(100*(g+1) + 1)}; !slices.Equal(got, want) {
			t.Errorf("observer %d saw seeds %v, want %v", g, got, want)
		}
	}
}
