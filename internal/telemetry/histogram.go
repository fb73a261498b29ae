package telemetry

import (
	"math/bits"

	"rdmasem/internal/sim"
)

// histBuckets is the number of power-of-two latency buckets: bucket 0 holds
// exactly 0 ns, bucket i >= 1 holds [2^(i-1), 2^i). 64 buckets cover every
// representable virtual duration.
const histBuckets = 64

// Histogram is a log-bucketed latency histogram. Observations land in
// power-of-two buckets, so merging observations in any order yields the same
// buckets — the property that keeps parallel sweep points deterministic.
// Quantiles interpolate linearly inside a bucket and are exact at the
// recorded min and max.
//
// A Histogram has one writer at a time and takes no lock: each concurrently
// simulating cluster records into its own registry fork, and forks meet only
// in Registry.Absorb, under the absorbing registry's lock.
type Histogram struct {
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [histBuckets]int64
}

// bucketOf maps a non-negative duration to its bucket index.
func bucketOf(v int64) int { return bits.Len64(uint64(v)) }

// Observe records one duration. Negative durations clamp to zero; they can
// only arise from a misuse of the observation hooks, never from the model.
func (h *Histogram) Observe(d sim.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Stats returns the exact count, sum, min and max of the observations.
func (h *Histogram) Stats() (count int64, sum, min, max sim.Duration) {
	return h.count, sim.Duration(h.sum), sim.Duration(h.min), sim.Duration(h.max)
}

// Quantile estimates the q-quantile (q in [0,1]) from the buckets: the rank
// is located in cumulative bucket counts and interpolated linearly across
// the bucket's value range, then clamped to the exact [min, max]. Empty
// histograms report 0.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	// The extremes are recorded exactly; report them exactly. Without this a
	// max sitting alone in its bucket reported the bucket floor instead (the
	// interpolation fraction is 0 for a single-sample bucket, and the clamp
	// below can only pull values down to max, never up to it).
	if q <= 0 {
		return sim.Duration(h.min)
	}
	if q >= 1 {
		return sim.Duration(h.max)
	}
	rank := q * float64(h.count-1)
	var cum float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		fn := float64(n)
		if rank < cum+fn {
			lo, hi := bucketBounds(i)
			// The recorded extremes tighten the bucket's value range: the
			// first non-empty bucket holds nothing below min, the last
			// nothing above max (for every other bucket the bounds are
			// already inside [min, max]). Interpolating over the tightened
			// range keeps quantiles exact at the edges of the distribution
			// instead of drifting toward the power-of-two bucket borders.
			if lo < h.min {
				lo = h.min
			}
			if hi > h.max {
				hi = h.max
			}
			frac := 0.0
			if fn > 1 {
				frac = (rank - cum) / (fn - 1)
			}
			v := int64(float64(lo) + frac*float64(hi-lo) + 0.5)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return sim.Duration(v)
		}
		cum += fn
	}
	return sim.Duration(h.max)
}

// bucketBounds returns the inclusive value range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, int64(1<<63 - 1)
	}
	return lo, int64(1)<<i - 1
}

// Merge folds another histogram's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
}
