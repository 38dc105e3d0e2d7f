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
// task's end) at full scale. The srun campaign starts tasks in more than
// 400 30-s windows, so its mean start rate must come from the full series,
// not from the downsampled one it plots.
func TestFig8SeriesMatchReference(t *testing.T) {
	for _, backend := range []spec.Backend{spec.BackendFlux, spec.BackendSrun} {
		t.Run(backend.String(), func(t *testing.T) {
			res := experiments.RunImpeccable(experiments.ImpeccableConfig{
				Nodes: 1024, Backend: backend, Seed: 20250916,
			})
			traces := res.Traces
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

			full := metrics.RateSeries(traces, 30*sim.Second, 0)
			if backend == spec.BackendSrun && len(full.Points) <= 400 {
				t.Fatalf("%d start-rate windows: too few to downsample", len(full.Points))
			}
			if want := full.Mean(); res.MeanStartRate != want {
				t.Errorf("MeanStartRate = %g, want the full series mean %g", res.MeanStartRate, want)
			}
			check("StartRate", res.StartRate, metrics.RateSeries(traces, 30*sim.Second, 400))
			if n := len(res.StartRate.Points); n > 400 {
				t.Errorf("StartRate has %d points, want at most 400", n)
			}
		})
	}
}
