package obs

// Hist is a log-bucketed histogram of non-negative float64 samples (the
// distribution primitive of the Fold and Blame sinks). Buckets grow
// geometrically by 2%, so any quantile estimate is within ~1% of the true
// sample value — while the histogram itself is a fixed-size array: O(1)
// memory no matter how many samples fold in, which is what lets the Fold
// sink report p50/p99 latencies for million-task campaigns without
// retaining them.

import "math"

const (
	// histMin is the smallest resolvable sample: one microsecond (in
	// seconds), the engine's clock granularity.
	histMin = 1e-6
	// histGrowth is the geometric bucket width.
	histGrowth = 1.02
	// histBuckets spans histMin·1.02^1600 ≈ 5.8e7 s — beyond any
	// simulated campaign.
	histBuckets = 1600
)

// invLogGrowth converts ln(v/histMin) to a bucket index.
var invLogGrowth = 1 / math.Log(histGrowth)

// Hist accumulates samples into fixed log-spaced buckets. The zero value
// is ready to use.
type Hist struct {
	// counts[0] holds samples below histMin (including zero);
	// counts[histBuckets+1] holds overflow.
	counts [histBuckets + 2]uint64
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v float64) int {
	if v < histMin {
		return 0
	}
	i := int(math.Log(v/histMin)*invLogGrowth) + 1
	// v/histMin can overflow to +Inf (int conversion then goes negative):
	// clamp both ends into the overflow bucket.
	if i > histBuckets || i < 1 {
		i = histBuckets + 1
	}
	return i
}

// Observe folds one sample in. Negative samples clamp to zero.
func (h *Hist) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.counts[bucketOf(v)]++
}

// N returns the sample count.
func (h *Hist) N() uint64 { return h.n }

// Sum returns the sample sum.
func (h *Hist) Sum() float64 { return h.sum }

// Mean returns the exact sample mean (sum is tracked, not bucketed).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min and Max return the exact sample extrema.
func (h *Hist) Min() float64 { return h.min }

// Max returns the largest observed sample.
func (h *Hist) Max() float64 { return h.max }

// Quantile estimates the q-quantile (q in [0,1]) to within the bucket
// resolution (~1%). It returns 0 with no samples; q outside [0,1] clamps.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// Rank matching the sorted-slice convention: position q·(n-1),
	// rounded to the nearest sample.
	rank := uint64(math.Round(q*float64(h.n-1))) + 1
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := h.bucketValue(i)
			// The extrema are exact; keep estimates inside them.
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// bucketValue returns the representative sample value of a bucket: the
// geometric midpoint of its bounds.
func (h *Hist) bucketValue(i int) float64 {
	if i == 0 {
		return h.min
	}
	if i > histBuckets {
		return h.max
	}
	return histMin * math.Pow(histGrowth, float64(i-1)+0.5)
}
