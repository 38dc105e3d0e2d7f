package experiments

// Fault-injection determinism and accounting tests (PR 9). Three
// properties pin the failure model:
//
//  1. disabled is inert — with the fault machinery compiled in but
//     Fault left zero, the golden fingerprints are byte-identical to the
//     pre-fault simulator (the golden_test.go suite already runs with a
//     nil Params; the explicit-params test here closes the other path);
//  2. enabled is deterministic — a fixed seed and MTBF grid replays
//     bit-identically across repeats and across shard counts;
//  3. the blame decomposition still telescopes exactly to makespan with
//     the new failure and checkpoint buckets populated.

import (
	"fmt"
	"reflect"
	"testing"

	"rpgo/internal/analytics"
	"rpgo/internal/core"
	"rpgo/internal/model"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/workload"
)

// smallSweep is a fast grid with enough churn to exercise eviction,
// relocation, and checkpoint restore.
func smallSweep() FailureSweepConfig {
	return FailureSweepConfig{
		Nodes:             4,
		MTBFs:             []float64{120, 3600},
		TaskSeconds:       20,
		CheckpointSeconds: 5,
		CheckpointBytes:   1 << 26,
		Seed:              31,
	}
}

// TestFailureSweepDeterministic: the sweep replays bit-identically for a
// fixed seed, and the churny cell actually shows failure activity.
func TestFailureSweepDeterministic(t *testing.T) {
	a := RunFailureSweep(smallSweep())
	b := RunFailureSweep(smallSweep())
	if !reflect.DeepEqual(a.Cells, b.Cells) {
		t.Fatalf("failure sweep is not deterministic:\n run A %+v\n run B %+v", a.Cells, b.Cells)
	}
	if len(a.Cells) != 4 {
		t.Fatalf("expected 2 MTBFs x 2 policies = 4 cells, got %d", len(a.Cells))
	}
	total := sweepShards * sweepTasksPerShard
	for i, cell := range a.Cells {
		if cell.Done+cell.Failed != total {
			t.Errorf("cell %d accounts for %d+%d tasks, want %d",
				i, cell.Done, cell.Failed, total)
		}
		if cell.Makespan <= 0 {
			t.Errorf("cell %d has no makespan", i)
		}
	}
	// The MTBF=120 cells see failures and pay for them; checkpoint
	// traffic shows up as its own blame bucket.
	for i := 0; i < 2; i++ {
		cell := a.Cells[i]
		if cell.NodeFailures == 0 {
			t.Errorf("cell %d (MTBF=120, %v) injected no node failures", i, cell.Policy)
		}
		if cell.Victims == 0 {
			t.Errorf("cell %d (MTBF=120, %v) evicted no tasks", i, cell.Policy)
		}
		if cell.BlameFailure <= 0 {
			t.Errorf("cell %d (MTBF=120, %v) attributes no time to failures", i, cell.Policy)
		}
		if cell.BlameCheckpoint <= 0 {
			t.Errorf("cell %d (MTBF=120, %v) attributes no time to checkpoints", i, cell.Policy)
		}
	}
}

// TestGoldenFaultDisabledExplicitParams: passing explicit default params
// (Fault zero-valued) through the golden Fig 8 campaign must reproduce
// the golden fingerprint — constructing no injector means touching no RNG
// stream and adding no event.
func TestGoldenFaultDisabledExplicitParams(t *testing.T) {
	params := model.Default()
	if params.Fault.Enabled() {
		t.Fatal("default params must leave faults disabled")
	}
	res := RunImpeccable(ImpeccableConfig{
		Nodes:    128,
		Backend:  spec.BackendFlux,
		Seed:     424242,
		MaxIters: 6,
		Params:   &params,
	})
	if got := fingerprintTraces(res.Traces); got != goldenFig8Tasks {
		t.Fatalf("explicit zero-fault params drifted the golden fingerprint: got %#x, want %#x",
			got, goldenFig8Tasks)
	}
}

// faultedFanout runs one checkpointed training fan-out under node churn on
// a plain session and returns its traces.
func faultedFanout(t *testing.T, seed uint64) []*profiler.TaskTrace {
	t.Helper()
	params := model.Default()
	params.Fault = model.FaultParams{NodeMTBF: 60, NodeDowntime: 30}
	tasks := workload.TrainingFanout(4, 4, 1<<26, sim.Seconds(90))
	for _, td := range tasks {
		td.MaxRetries = 12
		td.CheckpointInterval = sim.Seconds(10)
		td.CheckpointBytes = 1 << 26
	}
	sess := core.NewSession(core.Config{Seed: seed, Params: &params})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes: 4, SMT: 1, Partitions: FluxPartitions(1), Placement: spec.PlaceDataAware,
	})
	if err != nil {
		t.Fatal(err)
	}
	tm := sess.TaskManager(pilot)
	tm.Submit(tasks)
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	if pilot.Faults == nil {
		t.Fatal("fault params enabled but no injector was attached")
	}
	if st := pilot.Faults.Stats(); st.NodeFailures == 0 {
		t.Fatal("no node failures fired during the run")
	}
	return sess.Profiler.Tasks()
}

// TestFaultBlameTelescopes: under injected failures every task's blame
// vector still sums exactly to its submit→final span, the aggregate
// decomposition sums exactly to makespan, and the new failure/checkpoint
// buckets are populated.
func TestFaultBlameTelescopes(t *testing.T) {
	traces := faultedFanout(t, 99)
	for _, tr := range traces {
		s := analytics.Summarize(tr)
		if !s.Valid() {
			continue
		}
		if got, want := s.Blame.Total(), s.Final.Sub(s.Submit); got != want {
			t.Fatalf("task %s blame does not telescope: total %v, span %v\nedges: %+v",
				tr.UID, got, want, tr.Edges)
		}
	}
	rep := analytics.BlameFromTraces(traces)
	if rep.Blame.Total() != rep.Makespan {
		t.Fatalf("aggregate blame does not telescope: total %v, makespan %v",
			rep.Blame.Total(), rep.Makespan)
	}
	if rep.Blame[analytics.BlameFailure] <= 0 {
		t.Fatal("no time attributed to failures despite injected node churn")
	}
	if rep.Blame[analytics.BlameCheckpoint] <= 0 {
		t.Fatal("no time attributed to checkpoint traffic despite checkpointed tasks")
	}
	// Repeatability: the same seed replays the same traces bit for bit.
	again := faultedFanout(t, 99)
	if fingerprintTraces(traces) != fingerprintTraces(again) {
		t.Fatal("faulted run is not repeatable for a fixed seed")
	}
}

// faultedSharded runs two faulted pilots on a sharded session and returns
// the merged traces.
func faultedSharded(t *testing.T, shards int) []*profiler.TaskTrace {
	t.Helper()
	params := model.Default()
	params.Fault = model.FaultParams{NodeMTBF: 60, NodeDowntime: 30}
	ss := core.NewShardedSession(core.ShardedConfig{
		Seed:    5150,
		Params:  &params,
		Domains: 3, // client + 2 pilot domains
		Shards:  shards,
	})
	tms := make([]*core.TaskManager, 2)
	for i := 0; i < 2; i++ {
		pilot, err := ss.SubmitPilot(i+1, spec.PilotDescription{
			UID:        fmt.Sprintf("pilot.%04d", i),
			Nodes:      4,
			SMT:        1,
			Partitions: FluxPartitions(1),
			Placement:  spec.PlaceDataAware,
		})
		if err != nil {
			t.Fatal(err)
		}
		if pilot.Faults == nil {
			t.Fatal("sharded pilot did not get a fault injector")
		}
		tasks := workload.TrainingFanout(4, 4, 1<<26, sim.Seconds(90))
		for _, td := range tasks {
			td.MaxRetries = 12
			td.CheckpointInterval = sim.Seconds(10)
			td.CheckpointBytes = 1 << 26
		}
		tm := ss.TaskManager(pilot)
		tm.Submit(tasks)
		tms[i] = tm
	}
	for _, tm := range tms {
		if err := tm.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	return ss.Tasks()
}

// TestFaultShardCountInvariance: an identical injected failure schedule
// (per-domain seeds do not depend on the shard count) must produce
// identical merged traces and blame at shards = 1, 2, 4.
func TestFaultShardCountInvariance(t *testing.T) {
	ref := faultedSharded(t, 1)
	if len(ref) == 0 {
		t.Fatal("no tasks ran")
	}
	refFP := fingerprintTraces(ref)
	refBlame := analytics.BlameFromTraces(ref)
	if refBlame.Blame[analytics.BlameFailure] <= 0 {
		t.Fatal("sharded faulted run attributed no time to failures")
	}
	for _, shards := range []int{2, 4} {
		got := faultedSharded(t, shards)
		if fp := fingerprintTraces(got); fp != refFP {
			t.Fatalf("shards=%d changed the faulted trace fingerprint: got %#x, want %#x",
				shards, fp, refFP)
		}
		blame := analytics.BlameFromTraces(got)
		if blame.Blame != refBlame.Blame {
			t.Fatalf("shards=%d changed the faulted blame decomposition:\n got %+v\nwant %+v",
				shards, blame.Blame, refBlame.Blame)
		}
	}
}
