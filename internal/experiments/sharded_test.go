package experiments

import (
	"bytes"
	"testing"

	"rpgo/internal/analytics"
	"rpgo/internal/obs"
	"rpgo/internal/profiler"
	"rpgo/internal/spec"
)

// TestShardedShardCountInvariance is the property the whole design hangs
// on: a fixed seed and fixed partition layout must produce identical
// merged traces and identical blame decompositions for shards = 1, 2, 4, 8.
func TestShardedShardCountInvariance(t *testing.T) {
	run := func(shards int) ImpeccableResult {
		return RunImpeccable(ImpeccableConfig{
			Nodes:    256,
			Pilots:   8,
			Shards:   shards,
			Backend:  spec.BackendFlux,
			Seed:     424242,
			MaxIters: 2,
		})
	}
	ref := run(1)
	if ref.Tasks == 0 {
		t.Fatal("campaign ran no tasks")
	}
	refFP := fingerprintTraces(ref.Traces)
	refBlame := analytics.BlameFromTraces(ref.Traces)
	if refBlame.Blame.Total() != refBlame.Makespan {
		t.Fatalf("blame decomposition does not telescope: total %v, makespan %v",
			refBlame.Blame.Total(), refBlame.Makespan)
	}
	for _, shards := range []int{2, 4, 8} {
		res := run(shards)
		if res.Shards != shards {
			t.Fatalf("engine ran %d shards, want %d", res.Shards, shards)
		}
		if got := fingerprintTraces(res.Traces); got != refFP {
			t.Fatalf("shards=%d changed the merged trace fingerprint: got %#x, want %#x", shards, got, refFP)
		}
		blame := analytics.BlameFromTraces(res.Traces)
		if blame.Makespan != refBlame.Makespan {
			t.Fatalf("shards=%d changed the blamed makespan: %v vs %v", shards, blame.Makespan, refBlame.Makespan)
		}
		if blame.Blame != refBlame.Blame {
			t.Fatalf("shards=%d changed the blame decomposition:\n got %+v\nwant %+v", shards, blame.Blame, refBlame.Blame)
		}
		if blame.Blame.Total() != blame.Makespan {
			t.Fatalf("shards=%d blame decomposition does not telescope", shards)
		}
	}
}

// TestShardedMultiPilotProgress sanity-checks the partitioned path: more
// than one pilot, cross-partition traffic actually flows, and every
// campaign finishes.
func TestShardedMultiPilotProgress(t *testing.T) {
	res := RunImpeccable(ImpeccableConfig{
		Nodes:    128,
		Pilots:   4,
		Shards:   4,
		Backend:  spec.BackendFlux,
		Seed:     7,
		MaxIters: 1,
	})
	if res.Tasks == 0 {
		t.Fatal("no tasks ran")
	}
	if res.CrossEvents == 0 {
		t.Fatal("multi-pilot run exchanged no cross-partition events")
	}
	if res.Windows == 0 {
		t.Fatal("no synchronization windows executed")
	}
}

// TestShardedThroughputWaves: the wave-fed streaming campaign completes
// every task with bounded in-flight state and identical counts across
// shard counts.
func TestShardedThroughputWaves(t *testing.T) {
	run := func(shards int) ShardedThroughputResult {
		return RunShardedThroughput(ShardedThroughputConfig{
			Nodes:  64,
			Pilots: 4,
			Shards: shards,
			Tasks:  20000,
			Wave:   1024,
			Seed:   11,
		})
	}
	a := run(1)
	if a.Tasks != 20000 {
		t.Fatalf("folded %d tasks, want 20000", a.Tasks)
	}
	if a.AvgTput <= 0 {
		t.Fatal("no throughput measured")
	}
	b := run(4)
	if b.Tasks != a.Tasks || b.Failed != a.Failed || b.Makespan != a.Makespan {
		t.Fatalf("shard count changed the simulated outcome: %+v vs %+v", b, a)
	}
}

// TestShardedDefaults: a one-pilot scorecard sweeps only the one-shard
// row, and a zero Wave takes its 16,384-task default (with no wave nothing
// would ever be submitted).
func TestShardedDefaults(t *testing.T) {
	if rows := ReportSharded(16, 1, 5, 1, nil); len(rows) != 1 || rows[0].Shards != 1 {
		t.Fatalf("ReportSharded of one pilot: %+v, want one 1-shard row", rows)
	}
	res := RunShardedThroughput(ShardedThroughputConfig{Nodes: 4, Pilots: 1, Tasks: 20000, Seed: 5})
	if res.Tasks != 20000 || res.Failed != 0 {
		t.Fatalf("default wave: folded %d tasks, %d failed; want 20000 and 0", res.Tasks, res.Failed)
	}
}

// TestSharedSpillRecordOrderFixed: the domains of a sharded session run in
// turn, so a spill every domain of a 4-pilot, 4-shard campaign shares gets
// its task and transfer records in the same order on every run. Shard
// records carry wall-clock busy_ns, so the comparison skips them.
func TestSharedSpillRecordOrderFixed(t *testing.T) {
	run := func() (records []byte, n int) {
		var buf bytes.Buffer
		spill := obs.NewJSONL(&buf)
		res := RunImpeccable(ImpeccableConfig{
			Nodes:   256,
			Pilots:  4,
			Shards:  4,
			Backend: spec.BackendFlux,
			Seed:    7,
			Sink:    func(int) profiler.TraceSink { return spill },
		})
		for _, rec := range res.ShardStats {
			spill.WriteShard(rec)
		}
		if err := spill.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
			if len(line) > 0 && !bytes.HasPrefix(line, []byte(`{"shard":`)) {
				records = append(records, line...)
				n++
			}
		}
		return records, n
	}
	a, n := run()
	if n == 0 {
		t.Fatal("the spill holds no task or transfer record")
	}
	b, _ := run()
	if !bytes.Equal(a, b) {
		t.Fatalf("two runs spilled their %d records in different orders", n)
	}
}
