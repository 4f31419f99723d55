package main

import (
	"time"
)

// The host the benchmark was sized on is a VM with two vCPUs on a machine
// shared with other tenants, whose load changes the speed of every
// instruction the benchmark runs. Over 30 runs, calKernel below took from
// 0.49 to 1.1 ms, and its time moved between levels in steps that held for
// seconds to minutes. Whole runs, and the runs around them, land on one
// level, so longer runs do not average the steps out: ten runs of one
// workload spread by up to a third of their median.
//
// So a run measures the host's speed as it goes. Between ops, at most once
// per calInterval, it times calKernel, a fixed piece of the benchmark's own
// code that no change to the simulator or the service can speed up or slow
// down. The samples cut the run into segments. A segment's host factor is
// the mean kernel time of the samples at its two ends over calRefMs, and
// every time measured inside the segment is divided by it: op latencies,
// the loop's time behind ops_per_s, and each set-up repetition, scaled by
// the samples taken right after it. The end-to-end numbers read as on the
// sizing host in its fastest steady state. The detail line keeps the
// run's host factor and the wall-clock values; traced runs are not scaled.
//
// The kernel mixes what the simulator's hot paths do: a random
// read-modify-write over 1 MB, a small set-associative cache model with
// LRU replacement, and map inserts and deletes. It cannot tell the host's
// load from load the program itself leaves running between ops, such as a
// garbage collection still marking: a change that adds such work shows up
// only in part.

// calInterval is the least time between two kernel samples. A sample runs
// the kernel twice, about 1.5 to 2 ms in all, so sampling takes about 2% of
// a measured loop.
const calInterval = 100 * time.Millisecond

// calRefMs is calKernel's time on the sizing host in its fastest steady
// state: over 12,000 samples in 30 runs, the 5th to 25th percentiles were
// 0.57 to 0.61 ms.
const calRefMs = 0.6

// calSamples is how many times set-up runs the kernel after each
// repetition, so a set-up that lands in a slow stretch is scaled by it.
const calSamples = 5

var (
	calMem  = make([]uint64, 1<<17) // 1 MB
	calTags = make([]uint64, calSets*calWays)
	calAge  = make([]uint8, calSets*calWays)
	calMap  = make(map[uint64]uint64, 4096)
	calSink uint64
)

const (
	calSets = 2048
	calWays = 8
)

// calKernel runs the fixed calibration work once.
func calKernel() {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 12000; i++ {
		j := next() & uint64(len(calMem)-1)
		if calMem[j]&1 == 0 {
			calMem[j] += x
		} else {
			calMem[j] -= uint64(i)
		}
	}
	hits := 0
	for i := 0; i < 8000; i++ {
		addr := next() >> 8
		if x&7 < 5 {
			addr &= 1<<14 - 1
		} else {
			addr &= 1<<22 - 1
		}
		base := int(addr%calSets) * calWays
		tag := addr / calSets
		way := -1
		for w := 0; w < calWays; w++ {
			if calTags[base+w] == tag {
				way = w
				break
			}
		}
		if way >= 0 {
			hits++
		} else {
			way = 0
			for w := 1; w < calWays; w++ {
				if calAge[base+w] > calAge[base+way] {
					way = w
				}
			}
			calTags[base+way] = tag
		}
		for w := 0; w < calWays; w++ {
			if calAge[base+w] < 255 {
				calAge[base+w]++
			}
		}
		calAge[base+way] = 0
	}
	for i := 0; i < 6000; i++ {
		k := next() & 8191
		if v, ok := calMap[k]; ok {
			delete(calMap, k)
			calSink += v
		} else {
			calMap[k] = x
		}
	}
	calSink += uint64(hits) + calMem[x&1023]
}

// hostClock holds a run's kernel samples in time order. The samples cut
// the run into segments: segment k is the time between samples k-1 and k,
// and every op runs inside one segment. It is used from the goroutine that
// drives the run only.
type hostClock struct {
	samples []calSample
}

type calSample struct {
	start, end time.Time
	ms         float64
}

// sample runs the kernel twice, warming its data into the caches, and
// records the second run's time, so the program's own memory footprint
// does not change it.
func (c *hostClock) sample() {
	start := time.Now()
	calKernel()
	t := time.Now()
	calKernel()
	end := time.Now()
	c.samples = append(c.samples, calSample{start: start, end: end, ms: ms(end.Sub(t))})
}

// tick samples the kernel if calInterval has passed since the last sample.
func (c *hostClock) tick() {
	if n := len(c.samples); n == 0 || time.Since(c.samples[n-1].end) >= calInterval {
		c.sample()
	}
}

// segment is the index of the segment running now.
func (c *hostClock) segment() int { return len(c.samples) }

// factor is the host factor over samples lo to hi-1, those of them that
// exist: their mean kernel time over calRefMs. It is above 1 when the host
// ran slower than the reference, and 1 with no samples.
func (c *hostClock) factor(lo, hi int) float64 {
	lo, hi = max(0, lo), min(len(c.samples), hi)
	if lo >= hi {
		return 1
	}
	var sum float64
	for _, s := range c.samples[lo:hi] {
		sum += s.ms
	}
	return sum / float64(hi-lo) / calRefMs
}

// segFactor is segment k's host factor, from the samples at its two ends.
// The host changes speed in steps, and the samples nearest an op see the
// step it ran in. On recorded runs of three workloads, none of the other
// ways tried (the median of the nearest four or six samples, the sample
// before or after alone) left a spread between runs smaller by more than
// 0.02 on any timing metric, and the run's median kernel time left
// spreads up to 0.2.
func (c *hostClock) segFactor(k int) float64 { return c.factor(k-1, k+1) }

// span returns the time from start to end, where segment from began at
// start, less the kernel samples in it: as the clock read it, and with
// each segment's part divided by its factor.
func (c *hostClock) span(from int, start, end time.Time) (wall, scaled float64) {
	at := start
	for k := from; k <= len(c.samples); k++ {
		stop := end
		if k < len(c.samples) {
			stop = c.samples[k].start
		}
		d := stop.Sub(at).Seconds()
		wall += d
		scaled += d / c.segFactor(k)
		if k < len(c.samples) {
			at = c.samples[k].end
		}
	}
	return wall, scaled
}
