package experiments

import (
	"testing"

	"rpgo/internal/model"
	"rpgo/internal/spec"
)

// panicText runs fn and returns what it panicked with, or "" if it
// returned.
func panicText(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = r.(string)
		}
	}()
	fn()
	return ""
}

// TestRunnerErrorsPanicWithTheirName: a runner builds every description
// itself, so an error from its session is a bug, and it panics naming the
// runner and the session's error.
func TestRunnerErrorsPanicWithTheirName(t *testing.T) {
	cases := []struct {
		name string
		run  func()
		want string
	}{
		{"no nodes", func() { RunThroughput(ThroughputConfig{Name: "empty", Reps: 1}) },
			`experiments: empty: spec: pilot "pilot.0000" needs at least one node`},
		{"unknown workload", func() { RunThroughput(SrunCell(1, WorkloadKind(9), 1, 1)) },
			"experiments: unknown workload kind"},
		{"impeccable on dragon", func() { RunImpeccable(ImpeccableConfig{Nodes: 1, Backend: spec.BackendDragon}) },
			"experiments: impeccable backend must be srun or flux"},
	}
	for _, c := range cases {
		if got := panicText(c.run); got != c.want {
			t.Errorf("%s: panic %q, want %q", c.name, got, c.want)
		}
	}
}

// TestRunThroughputDefaultsAndOverrides: rpsim passes -reps and -tasks
// through unchanged, so zero reps runs one, and a task count overrides
// Table 1's full-density count. Each workload kind prints by name.
func TestRunThroughputDefaultsAndOverrides(t *testing.T) {
	cfg := SrunCell(1, Null, 3, 0)
	cfg.Tasks = 8
	res := RunThroughput(cfg)
	if len(res.Reps) != 1 {
		t.Fatalf("reps = %d, want 1 for -reps 0", len(res.Reps))
	}
	if got := res.Reps[0].Throughput.Tasks; got != 8 {
		t.Fatalf("started %d tasks, want the 8 the override asks for", got)
	}
	for k, want := range map[WorkloadKind]string{
		Null: "null", Dummy: "dummy", MixedExecFunc: "exec+func", WorkloadKind(7): "WorkloadKind(7)",
	} {
		if got := k.String(); got != want {
			t.Errorf("WorkloadKind(%d) prints %q, want %q", int(k), got, want)
		}
	}
}

// TestRunnersCountFailedTasks: each runner reports the tasks that ended
// FAILED. A 1-node pilot that loses its node for good fails every task;
// a failure-sweep cell whose node fails every few seconds exhausts the
// retries of most; and a checkpoint tier that does not exist fails every
// writer at validation.
func TestRunnersCountFailedTasks(t *testing.T) {
	params := model.Default()
	params.Fault = model.FaultParams{NodeMTBF: 10, MaxNodeFailures: 1}
	cfg := SrunCell(1, Dummy, 5, 1)
	cfg.Tasks = 8
	cfg.Params = &params
	rep := RunThroughput(cfg).Reps[0]
	if rep.Failed != 8 {
		t.Errorf("throughput rep: %d failed, want all 8 (the pilot's only node is gone)", rep.Failed)
	}

	sweep := RunFailureSweep(FailureSweepConfig{
		Nodes: 1, MTBFs: []float64{5}, TaskSeconds: 60, Horizon: 3600, Seed: 3,
	})
	for _, c := range sweep.Cells {
		if c.Failed == 0 || c.Done+c.Failed != sweepShards*sweepTasksPerShard {
			t.Errorf("%s cell: done %d, failed %d; want failures, and every task counted once",
				c.Policy, c.Done, c.Failed)
		}
	}

	ck := RunCheckpointPressure(CheckpointConfig{
		Nodes: 1, Writers: 3, Waves: 1, CkptBytes: 1 << 20, Dest: spec.StageTier(9),
		TaskSeconds: 1, Seed: 1,
	})
	if ck.Failed != 3 || ck.BytesMoved != 0 {
		t.Errorf("checkpoint to an invalid tier: %d failed, %d bytes moved; want 3 and 0",
			ck.Failed, ck.BytesMoved)
	}
}
