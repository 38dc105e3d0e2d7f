package experiments

// Acceptance tests for the causal blame engine on the golden fixed-seed
// Fig 8 campaign: the decomposition is deterministic, its category sums
// equal the makespan exactly (int64 microseconds, so "within 1e-9 s" holds
// trivially), and the streaming (Fold/Blame sink) report matches the
// in-memory one bit for bit.

import (
	"math"
	"reflect"
	"testing"

	"rpgo/internal/analytics"
	"rpgo/internal/obs"
	"rpgo/internal/spec"
)

func fig8BlameConfig() ImpeccableConfig {
	return ImpeccableConfig{
		Nodes:    128,
		Backend:  spec.BackendFlux,
		Seed:     424242,
		MaxIters: 6,
	}
}

func TestBlameFig8ExactAndDeterministic(t *testing.T) {
	res := RunImpeccable(fig8BlameConfig())
	if len(res.Traces) == 0 {
		t.Fatal("campaign retained no traces")
	}
	rep := analytics.BlameFromTraces(res.Traces)
	if rep.Tasks == 0 {
		t.Fatal("blame report covers no tasks")
	}
	if rep.Blame.Total() != rep.Makespan {
		t.Fatalf("decomposition not exact: Blame.Total()=%d us, makespan=%d us",
			rep.Blame.Total(), rep.Makespan)
	}
	if diff := math.Abs(rep.Blame.Total().Seconds() - rep.Makespan.Seconds()); diff > 1e-9 {
		t.Fatalf("decomposition off by %g s (> 1e-9)", diff)
	}
	// Every per-task digest decomposes its own span exactly too.
	for _, tr := range res.Traces {
		sum := analytics.Summarize(tr)
		if !sum.Valid() {
			continue
		}
		if sum.Blame.Total() != sum.Span() {
			t.Fatalf("task %s: digest not exact: %d != %d", sum.UID, sum.Blame.Total(), sum.Span())
		}
	}

	// A second identical run must reproduce the identical report.
	res2 := RunImpeccable(fig8BlameConfig())
	rep2 := analytics.BlameFromTraces(res2.Traces)
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatal("blame report is not deterministic across identical runs")
	}
}

func TestBlameFig8StreamingMatchesInMemory(t *testing.T) {
	retained := RunImpeccable(fig8BlameConfig())
	inMemory := analytics.BlameFromTraces(retained.Traces)

	// Streaming run: the Fold sink drops every trace at finalization and the
	// teed Blame sink keeps only O(tasks) digests.
	fold, blame := obs.NewFold(), obs.NewBlame()
	cfg := fig8BlameConfig()
	cfg.Sink = oneSink(obs.NewTee(fold, blame))
	streamed := RunImpeccable(cfg)
	if len(streamed.Traces) != 0 {
		t.Fatalf("streaming run retained %d traces; profiler should stream", len(streamed.Traces))
	}
	if fold.Tasks() != retained.Tasks {
		t.Fatalf("fold saw %d tasks, retained run had %d", fold.Tasks(), retained.Tasks)
	}

	streaming := blame.Report()
	streaming.Stragglers = nil // detector state, not decomposition
	inMemory.Stragglers = nil
	if !reflect.DeepEqual(streaming, inMemory) {
		t.Fatalf("streaming blame report differs from in-memory:\n got %+v\nwant %+v",
			streaming, inMemory)
	}
}
