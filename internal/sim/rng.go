// Package sim provides the deterministic simulation substrate shared by all
// of the memory-system models: a seeded pseudo-random number generator,
// Zipfian samplers for skewed workloads, statistics counters and histograms.
//
// Nothing in this package (or in anything built on it) consults wall-clock
// time or global randomness: a run is a pure function of its configuration
// and seed, so every experiment in this repository is exactly reproducible.
package sim

import (
	"math"
	"sync"
)

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** seeded via splitmix64). It is not safe for concurrent use;
// each simulated core or generator owns its own RNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 to spread the seed across the state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Poisson returns a sample from a Poisson distribution with mean lambda,
// using Knuth's product-of-uniforms method. It is exact for the small means
// the fault models use (lambda well below ~30); larger lambdas are clamped
// to 64 draws to bound worst-case work, which only matters for absurd error
// rates. Non-positive lambda returns 0.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l || k >= 64 {
			return k
		}
		k++
	}
}

// Zipf samples integers in [0, n) with a Zipfian (power-law) distribution of
// exponent theta, using the Gray et al. rejection-free method. Rank 0 is the
// hottest item. The mapping from rank to item is scrambled with a fixed
// multiplicative hash so hot items are spread across the address space.
type Zipf struct {
	rng      *RNG
	n        uint64
	theta    float64
	alpha    float64
	zetan    float64
	eta      float64
	zeta2    float64
	scramble bool
}

// NewZipf creates a Zipfian sampler over [0, n) with exponent theta
// (typically 0.99 for YCSB). If scramble is true, ranks are permuted through
// a hash so that popularity is uncorrelated with address order.
func NewZipf(rng *RNG, n uint64, theta float64, scramble bool) *Zipf {
	if n == 0 {
		panic("sim: NewZipf with zero n")
	}
	if theta >= 0.99 {
		theta = 0.99 // Gray's method needs theta < 1
	}
	z := &Zipf{rng: rng, n: n, theta: theta, scramble: scramble}
	z.zetan = zetaStatic(n, theta)
	z.zeta2 = zetaStatic(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// zetaKey identifies one zetaStatic input; theta is keyed by its bits so
// every float, NaN included, has a stable key.
type zetaKey struct {
	n     uint64
	theta uint64
}

// zetaMemo caches zetaStatic by (n, theta): every core's stream of a run has
// the same parameters, and service runs build streams concurrently.
var zetaMemo sync.Map // zetaKey -> float64

// zetaStatic returns the generalized harmonic number H(n, theta), memoized.
func zetaStatic(n uint64, theta float64) float64 {
	key := zetaKey{n, math.Float64bits(theta)}
	if v, ok := zetaMemo.Load(key); ok {
		return v.(float64)
	}
	v := zetaCompute(n, theta)
	zetaMemo.Store(key, v)
	return v
}

func zetaCompute(n uint64, theta float64) float64 {
	// For large n, approximate the tail of the generalized harmonic number
	// with an integral; exact summation for the head keeps the error tiny
	// while avoiding O(n) setup for multi-million-item spaces.
	const exact = 10000
	sum := 0.0
	limit := n
	if limit > exact {
		limit = exact
	}
	for i := uint64(1); i <= limit; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	if n > exact {
		// Integral of x^-theta from `exact` to n.
		if theta == 1 {
			sum += math.Log(float64(n) / float64(exact))
		} else {
			sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(exact), 1-theta)) / (1 - theta)
		}
	}
	return sum
}

// Next returns the next sample in [0, n).
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1.0:
		rank = 0
	case uz < 1.0+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	if !z.scramble {
		return rank
	}
	// Fibonacci-hash permutation of the rank within [0, n); the offset keeps
	// the hottest rank away from item 0.
	return ((rank + 12345) * 0x9e3779b97f4a7c15) % z.n
}
