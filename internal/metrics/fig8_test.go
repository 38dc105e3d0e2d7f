package metrics_test

import (
	"reflect"
	"testing"

	"rpgo/internal/experiments"
	"rpgo/internal/metrics"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// TestFig8SeriesMatchReference diffs the Fig 8 analysis against the
// reference on the paper's 1,024-node campaign, for both executors: the
// shapes a real run produces (bursts of equal starts, a start at another
// task's end) at full scale.
func TestFig8SeriesMatchReference(t *testing.T) {
	for _, backend := range []spec.Backend{spec.BackendFlux, spec.BackendSrun} {
		t.Run(backend.String(), func(t *testing.T) {
			traces := experiments.RunImpeccable(experiments.ImpeccableConfig{
				Nodes: 1024, Backend: backend, Seed: 20250916,
			}).Traces
			check := func(name string, got, want any) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s differs from the reference", name)
				}
			}
			check("ThroughputOf", metrics.ThroughputOf(traces), metrics.RefThroughputOf(traces))
			for _, maxPoints := range []int{0, 400} {
				check("ConcurrencySeries", metrics.ConcurrencySeries(traces, maxPoints), metrics.RefConcurrencySeries(traces, maxPoints))
				check("RateSeries", metrics.RateSeries(traces, 30*sim.Second, maxPoints), metrics.RefRateSeries(traces, 30*sim.Second, maxPoints))
			}
		})
	}
}
