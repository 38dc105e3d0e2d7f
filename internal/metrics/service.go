package metrics

// Service-level metrics: request-latency percentiles, queue-depth and
// batch-occupancy series, and replica-count timelines for the inference
// service subsystem (the request/response counterpart of the task metrics
// in metrics.go).

import (
	"fmt"
	"sort"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

// LatencySummary condenses a latency distribution into the percentiles the
// serving literature reports. All values are seconds.
type LatencySummary struct {
	N    int
	Mean float64
	P50  float64
	P95  float64
	P99  float64
	Max  float64
}

// String renders the summary in one line.
func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d mean=%.3fs p50=%.3fs p95=%.3fs p99=%.3fs max=%.3fs",
		s.N, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// SummarizeLatencies computes the summary of a set of durations.
func SummarizeLatencies(ds []sim.Duration) LatencySummary {
	if len(ds) == 0 {
		return LatencySummary{}
	}
	xs := make([]float64, len(ds))
	sum := 0.0
	for i, d := range ds {
		xs[i] = d.Seconds()
		sum += xs[i]
	}
	sort.Float64s(xs)
	return LatencySummary{
		N:    len(xs),
		Mean: sum / float64(len(xs)),
		P50:  Percentile(xs, 0.50),
		P95:  Percentile(xs, 0.95),
		P99:  Percentile(xs, 0.99),
		Max:  xs[len(xs)-1],
	}
}

// Percentile returns the q-quantile (0..1) of an ascending-sorted slice
// using nearest-rank interpolation.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// RequestLatencies extracts client-observed latencies from request traces,
// skipping failed requests.
func RequestLatencies(reqs []profiler.RequestTrace) []sim.Duration {
	out := make([]sim.Duration, 0, len(reqs))
	for _, r := range reqs {
		if r.Failed {
			continue
		}
		out = append(out, r.Latency())
	}
	return out
}

// QueueWaits extracts issue→dispatch waits from request traces.
func QueueWaits(reqs []profiler.RequestTrace) []sim.Duration {
	out := make([]sim.Duration, 0, len(reqs))
	for _, r := range reqs {
		if r.Failed {
			continue
		}
		out = append(out, r.QueueWait())
	}
	return out
}

// BatchOccupancy returns the mean batch fill against the configured cap:
// 1.0 means every request rode a full batch. Each request trace carries
// the size of the batch that served it, so the mean is weighted by
// request, matching how serving systems report occupancy.
func BatchOccupancy(reqs []profiler.RequestTrace, maxBatch int) float64 {
	if maxBatch <= 0 {
		maxBatch = 1
	}
	n, sum := 0, 0.0
	for _, r := range reqs {
		if r.Failed || r.Batch <= 0 {
			continue
		}
		sum += float64(r.Batch)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / float64(maxBatch)
}
