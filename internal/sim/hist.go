package sim

import (
	"fmt"
	"math/bits"
)

// Histogram bucket geometry. Values below histLinearMax get one exact
// bucket each; above that, every power-of-two octave is split into
// histSubBuckets log-linear sub-buckets, so the relative bucket width — and
// therefore the worst-case relative error of any percentile estimate — is
// 1/histSubBuckets (12.5%). Values at or beyond 2^histMaxOctave clamp into
// the final bucket; at one cycle per unit that is ~3.8 minutes of simulated
// time at 3.2 GHz, far beyond any single-access latency.
const (
	histLinearMax  = 32
	histSubBuckets = 8
	histMinOctave  = 5 // log2(histLinearMax)
	histMaxOctave  = 40
	// HistBuckets is the fixed bucket count of every Histogram.
	HistBuckets = histLinearMax + (histMaxOctave-histMinOctave)*histSubBuckets
)

// Histogram is a fixed-bucket latency histogram: Observe is allocation-free
// and costs a handful of integer ops, buckets are mergeable (and therefore
// window-deltable via snapshots), and percentile estimates carry a bounded
// relative error of 1/8 set by the log-linear bucket geometry. Histograms
// live on the run registry next to Counters and FloatAccums and follow the
// same concurrency contract: one registry per run, no cross-goroutine
// sharing.
type Histogram struct {
	name    string
	count   uint64
	sum     uint64
	max     uint64
	buckets [HistBuckets]uint64
}

// histBucket maps a value to its bucket index.
func histBucket(v uint64) int {
	if v < histLinearMax {
		return int(v)
	}
	o := bits.Len64(v) - 1 // >= histMinOctave
	if o >= histMaxOctave {
		return HistBuckets - 1
	}
	sub := (v >> (uint(o) - 3)) & (histSubBuckets - 1)
	return histLinearMax + (o-histMinOctave)*histSubBuckets + int(sub)
}

// histBucketBounds returns bucket i's value range [lo, hi).
func histBucketBounds(i int) (lo, hi uint64) {
	if i < histLinearMax {
		return uint64(i), uint64(i) + 1
	}
	j := i - histLinearMax
	o := uint(j/histSubBuckets + histMinOctave)
	sub := uint64(j % histSubBuckets)
	width := uint64(1) << (o - 3)
	lo = (histSubBuckets + sub) * width
	return lo, lo + width
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[histBucket(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// delta returns the per-bucket change of h since the snapshotted copy prev.
// The exact max of the window is unknowable from bucket subtraction, so the
// delta's max is the tightest bucket-derived upper bound, capped by the
// histogram's lifetime max.
func (h *Histogram) delta(prev Histogram) Histogram {
	d := Histogram{name: h.name, count: h.count - prev.count, sum: h.sum - prev.sum}
	top := -1
	for i := range h.buckets {
		d.buckets[i] = h.buckets[i] - prev.buckets[i]
		if d.buckets[i] > 0 {
			top = i
		}
	}
	if top >= 0 {
		_, hi := histBucketBounds(top)
		d.max = hi - 1
		if h.max < d.max {
			d.max = h.max
		}
	}
	return d
}

// Percentile returns the p-th percentile (0 <= p <= 100) estimated from the
// buckets, interpolating linearly inside the selected bucket. The estimate
// is exact for values below 32 and within 12.5% relative error above;
// p >= 100 returns the exact observed max. Returns 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if p >= 100 {
		return float64(h.max)
	}
	if p < 0 {
		p = 0
	}
	// Nearest-rank position, matching Sample.Percentile's convention.
	pos := p / 100 * float64(h.count-1)
	rank := uint64(pos)
	var cum uint64
	for i := range h.buckets {
		n := h.buckets[i]
		if n == 0 {
			continue
		}
		cum += n
		if cum > rank {
			lo, hi := histBucketBounds(i)
			frac := (float64(rank) - float64(cum-n)) / float64(n)
			v := float64(lo) + frac*float64(hi-1-lo)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
	}
	return float64(h.max)
}

// CumBucket is one cumulative histogram bucket in export order: Cum
// observations had a value <= Le. This is the Prometheus/OpenMetrics bucket
// shape; Le is the inclusive integer upper bound of the underlying
// log-linear bucket.
type CumBucket struct {
	Le  uint64
	Cum uint64
}

// CumBuckets converts the histogram's bucket array to cumulative
// Prometheus-style buckets, appending to dst and returning it. Only buckets
// that actually hold observations are emitted (the cumulative sequence is
// unchanged by omitting empty buckets); the final entry's Cum always equals
// Count, so renderers can close the sequence with a +Inf bucket. The
// sequence is monotone in both Le and Cum by construction.
func (h *Histogram) CumBuckets(dst []CumBucket) []CumBucket {
	var cum uint64
	for i := range h.buckets {
		n := h.buckets[i]
		if n == 0 {
			continue
		}
		cum += n
		_, hi := histBucketBounds(i)
		dst = append(dst, CumBucket{Le: hi - 1, Cum: cum})
	}
	return dst
}

// HistSummary is the exported fixed-percentile digest of one histogram, the
// shape that flows into Result, experiment tables and epoch series.
type HistSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   uint64  `json:"max"`
}

// Summary digests the histogram into the standard percentile set.
func (h *Histogram) Summary() HistSummary {
	return HistSummary{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
		Max:   h.max,
	}
}

// String renders the summary on one line.
func (s HistSummary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.0f p90=%.0f p99=%.0f p99.9=%.0f max=%d",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.P999, s.Max)
}
