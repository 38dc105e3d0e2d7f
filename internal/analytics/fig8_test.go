package analytics_test

import (
	"reflect"
	"testing"

	"rpgo/internal/analytics"
	"rpgo/internal/experiments"
	"rpgo/internal/spec"
)

// TestFig8BlameMatchesReference diffs the blame report against the
// reference on the paper's 1,024-node campaign, for both executors.
func TestFig8BlameMatchesReference(t *testing.T) {
	for _, backend := range []spec.Backend{spec.BackendFlux, spec.BackendSrun} {
		t.Run(backend.String(), func(t *testing.T) {
			traces := experiments.RunImpeccable(experiments.ImpeccableConfig{
				Nodes: 1024, Backend: backend, Seed: 20250916,
			}).Traces
			sums := make([]analytics.TaskSummary, len(traces))
			for i, tr := range traces {
				sums[i] = analytics.Summarize(tr)
			}
			got := analytics.BlameFromTraces(traces)
			if want := analytics.RefComputeBlame(sums); !reflect.DeepEqual(got, want) {
				t.Errorf("blame differs from the reference:\n got %+v\nwant %+v", got.Blame, want.Blame)
			}
			if len(got.Chain) < 2 {
				t.Fatalf("chain of %d links: the campaign did not run", len(got.Chain))
			}
		})
	}
}
