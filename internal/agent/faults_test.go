package agent

// Fault-path regression tests: the orphaned-body hazard on mid-run crash +
// retry, the constant retry backoff, and the causal edges the recovery path
// records.

import (
	"fmt"
	"reflect"
	"testing"

	"rpgo/internal/data"
	"rpgo/internal/model"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/states"
)

func hasEdge(tr *profiler.TaskTrace, kind profiler.EdgeKind) bool {
	for _, e := range tr.Edges {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

// TestOrphanedBodyInertAfterRelocation is the regression for the hazard
// noted at the Task.body declaration: when a running task is evicted
// mid-body (node failure) and relocated, the stale body's pending timers
// must not complete — or checkpoint against — the new incarnation. The
// generation tag bumps on eviction; every body callback and the wrapped
// done are guarded on it.
func TestOrphanedBodyInertAfterRelocation(t *testing.T) {
	r := newRig(t, spec.PilotDescription{
		Nodes:      2,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	tk := r.task(&spec.TaskDescription{
		CoresPerRank: 1, Ranks: 1,
		Duration:           100 * sim.Second,
		MaxRetries:         3,
		CheckpointInterval: 20 * sim.Second,
		CheckpointBytes:    1 << 20,
	}, "ck")
	doneCount := 0
	var final *Task
	r.agent.Submit(tk, func(tt *Task) { doneCount++; final = tt })

	// Mid-body, past at least one durable checkpoint. The stale body now
	// has a pending segment timer.
	r.eng.RunUntil(sim.Time(45 * sim.Second))
	if tk.State != states.TaskRunning {
		t.Fatalf("task not running at eviction time: %v", tk.State)
	}
	if !tk.ckptSaved {
		t.Fatal("no checkpoint persisted before the failure")
	}
	victims := r.agent.FailNode(0, "node 0 failed")
	if victims == 0 {
		victims = r.agent.FailNode(1, "node 1 failed")
	}
	if victims != 1 {
		t.Fatalf("evicted %d tasks, want 1", victims)
	}

	r.eng.Run()
	// Exactly one completion: a live stale timer would either complete the
	// task early (doneCount stays 1 but End lands before the remaining
	// work) or double-complete it.
	if doneCount != 1 {
		t.Fatalf("task completed %d times, want 1", doneCount)
	}
	if final == nil || final.State != states.TaskDone {
		t.Fatalf("final: %+v", final)
	}
	if tk.Trace.Retries != 1 {
		t.Fatalf("retries = %d, want 1", tk.Trace.Retries)
	}
	// The relocated run restores the checkpoint and resumes from the saved
	// fraction: it still has >= one full segment of compute left, so End
	// must land well after the eviction.
	if tk.Trace.End < sim.Time(65*sim.Second) {
		t.Fatalf("task ended at %v — stale body completed the new incarnation early", tk.Trace.End)
	}
	if !hasEdge(tk.Trace, profiler.EdgeFailure) {
		t.Fatal("eviction recorded no failure edge")
	}
	// The re-dispatch waits exactly the constant backoff after the failure.
	backoff := sim.Seconds(model.Default().RP.RetryBackoff)
	retryEdges := 0
	for _, e := range tk.Trace.Edges {
		if e.Kind != profiler.EdgeRetry {
			continue
		}
		retryEdges++
		if got := e.To.Sub(e.From); got != backoff {
			t.Fatalf("retry edge %v → %v spans %v, want the %v backoff", e.From, e.To, got, backoff)
		}
	}
	if retryEdges != 1 {
		t.Fatalf("relocation recorded %d retry edges, want 1", retryEdges)
	}
	if !hasEdge(tk.Trace, profiler.EdgeCheckpoint) {
		t.Fatal("checkpoint traffic recorded no checkpoint edge")
	}
}

// TestOrphanedStagedBodyInertAfterRelocation is the staged counterpart of
// TestOrphanedBodyInertAfterRelocation: a task that pulls 20 GB onto its
// node, computes for 10 s and writes 20 GB back is evicted once in each of
// those phases. The orphaned attempt's transfers still complete, so its
// staging must stay inert: exactly one completion, one failure, one retry,
// and staging fields, edges and transfers as pinned. Evicted during
// stage-in, the relocated attempt lands on the same node and rides the
// orphan's still-running pull (one transfer edge, no second stage edge).
func TestOrphanedStagedBodyInertAfterRelocation(t *testing.T) {
	for _, c := range []struct {
		phase     string
		evictAt   sim.Time
		inPhase   func(*profiler.TaskTrace) bool
		stageIn   sim.Duration
		stageOut  sim.Duration
		bytesIn   int64
		bytesOut  int64
		transfers int
		edges     []string
	}{
		{phase: "stage-in", evictAt: sim.Time(21 * sim.Second),
			inPhase:   func(tr *profiler.TaskTrace) bool { return tr.StageIn == 0 },
			stageIn:   1411652,
			stageOut:  4305167,
			bytesIn:   20 * data.GB,
			bytesOut:  20 * data.GB,
			transfers: 2,
			edges: []string{
				"failure 19176321-21000000 node 0 failed",
				"retry 21000000-22000000 node 0 failed",
				"transfer 22069836-23481488 xfer.000000",
			}},
		{phase: "compute", evictAt: sim.Time(28 * sim.Second),
			inPhase:   func(tr *profiler.TaskTrace) bool { return tr.StageIn > 0 && tr.BytesOut == 0 },
			stageIn:   8610334,
			stageOut:  4305167,
			bytesIn:   40 * data.GB,
			bytesOut:  20 * data.GB,
			transfers: 3,
			edges: []string{
				"stage 19176321-23481488 xfer.000000",
				"failure 19176321-28000000 node 0 failed",
				"retry 28000000-29000000 node 0 failed",
				"stage 29069836-33375003 xfer.000001",
			}},
		{phase: "stage-out", evictAt: sim.Time(35 * sim.Second),
			inPhase:   func(tr *profiler.TaskTrace) bool { return tr.BytesOut > 0 && tr.StageOut == 0 },
			stageIn:   10316954,
			stageOut:  4305167,
			bytesIn:   40 * data.GB,
			bytesOut:  40 * data.GB,
			transfers: 4,
			edges: []string{
				"stage 19176321-23481488 xfer.000000",
				"failure 19176321-35000000 node 0 failed",
				"retry 35000000-36000000 node 0 failed",
				"stage 36069836-42081623 xfer.000002",
			}},
	} {
		t.Run(c.phase, func(t *testing.T) {
			r := newRig(t, spec.PilotDescription{
				Nodes:      2,
				Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
			})
			tk := r.task(&spec.TaskDescription{
				CoresPerRank: 1, Ranks: 1,
				Duration:   10 * sim.Second,
				MaxRetries: 3,
				InputData: []spec.StagingDirective{{Dataset: "in", SizeBytes: 20 * data.GB,
					Source: spec.TierSharedFS, Dest: spec.TierNodeLocal}},
				OutputData: []spec.StagingDirective{{Dataset: "out", SizeBytes: 20 * data.GB,
					Dest: spec.TierSharedFS}},
			}, "st")
			doneCount := 0
			var final *Task
			r.agent.Submit(tk, func(tt *Task) { doneCount++; final = tt })

			r.eng.RunUntil(c.evictAt)
			if tk.State != states.TaskRunning || !c.inPhase(tk.Trace) {
				t.Fatalf("task not in %s at eviction: %v, trace %+v", c.phase, tk.State, tk.Trace)
			}
			victims := r.agent.FailNode(0, "node 0 failed")
			if victims == 0 {
				victims = r.agent.FailNode(1, "node 1 failed")
			}
			if victims != 1 {
				t.Fatalf("evicted %d tasks, want 1", victims)
			}
			r.eng.Run()

			if doneCount != 1 {
				t.Fatalf("task completed %d times, want 1", doneCount)
			}
			if final == nil || final.State != states.TaskDone {
				t.Fatalf("final: %+v", final)
			}
			failures, retries := 0, 0
			var edges []string
			for _, e := range tk.Trace.Edges {
				switch e.Kind {
				case profiler.EdgeFailure:
					failures++
				case profiler.EdgeRetry:
					retries++
				}
				edges = append(edges, fmt.Sprintf("%v %d-%d %s", e.Kind, e.From, e.To, e.Ref))
			}
			if failures != 1 || retries != 1 {
				t.Errorf("%d failure and %d retry edges, want 1 and 1", failures, retries)
			}
			tr := tk.Trace
			if tr.StageIn != c.stageIn || tr.StageOut != c.stageOut {
				t.Errorf("StageIn, StageOut = %d, %d, want %d, %d", tr.StageIn, tr.StageOut, c.stageIn, c.stageOut)
			}
			if tr.BytesIn != c.bytesIn || tr.BytesOut != c.bytesOut {
				t.Errorf("BytesIn, BytesOut = %d, %d, want %d, %d", tr.BytesIn, tr.BytesOut, c.bytesIn, c.bytesOut)
			}
			if n := len(r.prof.Transfers()); n != c.transfers {
				t.Errorf("transfers = %d, want %d", n, c.transfers)
			}
			if !reflect.DeepEqual(edges, c.edges) {
				t.Errorf("edges:\n%q\nwant\n%q", edges, c.edges)
			}
		})
	}
}

// TestRetryBackoffLegacyConstant pins the constant backoff through
// behaviour: every resubmission, not only the first, waits exactly
// RetryBackoff after its failure.
func TestRetryBackoffLegacyConstant(t *testing.T) {
	r := newRig(t, spec.PilotDescription{
		Nodes:      1,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	tk := r.task(&spec.TaskDescription{
		CoresPerRank: 1, Ranks: 1, Duration: 100 * sim.Second, MaxRetries: 3,
	}, "rb")
	r.agent.Submit(tk, func(*Task) {})
	for _, at := range []sim.Duration{30 * sim.Second, 60 * sim.Second, 90 * sim.Second} {
		r.eng.RunUntil(sim.Time(at))
		if victims := r.agent.FailNode(0, "node 0 failed"); victims != 1 {
			t.Fatalf("evicted %d tasks at %v, want 1", victims, at)
		}
	}
	r.eng.Run()
	backoff := sim.Seconds(model.Default().RP.RetryBackoff)
	var spans []sim.Duration
	for _, e := range tk.Trace.Edges {
		if e.Kind == profiler.EdgeRetry {
			spans = append(spans, e.To.Sub(e.From))
		}
	}
	if len(spans) != 3 {
		t.Fatalf("%d retry edges, want 3", len(spans))
	}
	for i, d := range spans {
		if d != backoff {
			t.Fatalf("retry %d waited %v, want the constant %v", i+1, d, backoff)
		}
	}
}

// TestTerminalFailureEdge: a task that exhausts its retries carries a
// terminal failure edge so the blame decomposition can attribute its
// unfinished tail.
func TestTerminalFailureEdge(t *testing.T) {
	r := newRig(t, spec.PilotDescription{
		Nodes:      2,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendDragon, Instances: 1}},
	})
	tk := r.task(&spec.TaskDescription{
		Kind: spec.Function, CoresPerRank: 1, Ranks: 1,
		Duration: 1000 * sim.Second, MaxRetries: 2,
	}, "doomed")
	var final *Task
	r.agent.Submit(tk, func(tt *Task) { final = tt })
	r.eng.RunUntil(sim.Time(30 * sim.Second))
	for _, l := range r.agent.Launchers() {
		l.Crash("dead")
	}
	r.eng.Run()
	if final == nil || final.State != states.TaskFailed {
		t.Fatalf("task should fail terminally: %+v", final)
	}
	if !hasEdge(tk.Trace, profiler.EdgeFailure) {
		t.Fatal("terminal failure recorded no failure edge")
	}
}

// TestFailNodeEvictsAndRelocates: a node failure evicts exactly the tasks
// whose placement touches the node, drops its cached replicas, and the
// victims finish on surviving capacity.
func TestFailNodeEvictsAndRelocates(t *testing.T) {
	r := newRig(t, spec.PilotDescription{
		Nodes:      2,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	done := 0
	n := 4
	var tasks []*Task
	for i := 0; i < n; i++ {
		// Node-wide tasks: two run (one per node), two queue behind them.
		tk := r.task(&spec.TaskDescription{
			CoresPerRank: 1, Ranks: 56, Duration: 60 * sim.Second, MaxRetries: 3,
		}, "w"+string(rune('a'+i)))
		tasks = append(tasks, tk)
		r.agent.Submit(tk, func(tt *Task) {
			if tt.State == states.TaskDone {
				done++
			}
		})
	}
	r.eng.RunUntil(sim.Time(30 * sim.Second))
	if victims := r.agent.FailNode(1, "node 1 failed"); victims != 1 {
		t.Fatalf("evicted %d tasks, want exactly the one on node 1", victims)
	}
	r.eng.Run()
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	retried := 0
	for _, tk := range tasks {
		retried += tk.Trace.Retries
	}
	if retried == 0 {
		t.Fatal("expected the evicted task to retry")
	}
}

// TestCrashRestartInstance: the injector-facing crash/restart hooks kill a
// live instance, the agent fails work over, and the restarted instance
// comes back ready and usable. srun has no instance process, so it refuses
// both hooks while the flux instances next to it crash and restart.
func TestCrashRestartInstance(t *testing.T) {
	cases := []struct {
		name  string
		parts []spec.PartitionConfig
		// srun is the flat index of the srun instance, -1 if none; crash is
		// the flux instance to crash.
		srun, crash int
	}{
		{"flux", []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 2}}, -1, 0},
		{"srun+flux", []spec.PartitionConfig{
			{Backend: spec.BackendSrun, Instances: 1, NodesPerInstance: 1},
			{Backend: spec.BackendFlux, Instances: 2},
		}, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, spec.PilotDescription{Nodes: 4, Partitions: tc.parts})
			done := 0
			for i := 0; i < 20; i++ {
				tk := r.task(&spec.TaskDescription{
					Backend:      spec.BackendFlux,
					CoresPerRank: 1, Ranks: 1, Duration: 120 * sim.Second, MaxRetries: 3,
				}, "c"+string(rune('a'+i)))
				r.agent.Submit(tk, func(tt *Task) {
					if tt.State == states.TaskDone {
						done++
					}
				})
			}
			r.eng.RunUntil(sim.Time(30 * sim.Second))
			if want := tc.crash + 2; r.agent.NumInstances() != want {
				t.Fatalf("NumInstances = %d, want %d", r.agent.NumInstances(), want)
			}
			for _, i := range []int{-1, r.agent.NumInstances()} {
				if r.agent.CrashInstance(i, "out of range") || r.agent.RestartInstance(i) {
					t.Fatalf("instance %d is out of range, yet a hook took it", i)
				}
			}
			if tc.srun >= 0 {
				if r.agent.CrashInstance(tc.srun, "injected crash") {
					t.Fatal("srun has no instance process to crash")
				}
				if r.agent.RestartInstance(tc.srun) {
					t.Fatal("srun has no instance process to restart")
				}
			}
			if !r.agent.CrashInstance(tc.crash, "injected crash") {
				t.Fatalf("CrashInstance(%d) refused", tc.crash)
			}
			if r.agent.CrashInstance(tc.crash, "again") {
				t.Fatal("crashing a dead instance should refuse")
			}
			r.eng.RunUntil(sim.Time(60 * sim.Second))
			if !r.agent.RestartInstance(tc.crash) {
				t.Fatalf("RestartInstance(%d) refused", tc.crash)
			}
			if r.agent.RestartInstance(tc.crash) {
				t.Fatal("restarting a restarting instance should refuse")
			}
			r.eng.Run()
			if done != 20 {
				t.Fatalf("done = %d, want 20", done)
			}
		})
	}
}

// TestCrashInLaunchPipeline: an instance that crashes after placing a task
// and before starting it holds no queued or running request for the crash
// to fail. The task's next pipeline stage finds the instance down: it gives
// the slots back and fails the request with "<instance> down", and the
// agent retries the task once, to DONE on the restarted instance. Flux
// drops it at exec, after the job shell; Dragon after its dispatcher, and
// PRRTE after its serial prun launcher.
func TestCrashInLaunchPipeline(t *testing.T) {
	for _, c := range []struct {
		backend spec.Backend
		kind    spec.TaskKind
	}{{spec.BackendFlux, spec.Executable}, {spec.BackendDragon, spec.Function}, {spec.BackendPRRTE, spec.Executable}} {
		t.Run(c.backend.String(), func(t *testing.T) {
			r := newRig(t, spec.PilotDescription{
				Nodes:      1,
				Partitions: []spec.PartitionConfig{{Backend: c.backend, Instances: 1}},
			})
			r.agent.EnableElasticity()
			r.eng.RunUntil(sim.Time(60 * sim.Second)) // agent and instance up
			l := r.agent.Launchers()[0]
			node := l.Partition().Nodes[0]
			slots := node.FreeCPU()
			tk := r.task(&spec.TaskDescription{
				Kind: c.kind, CoresPerRank: 1, Ranks: 1, Duration: 10 * sim.Second, MaxRetries: 1,
			}, "p")
			var final *Task
			r.agent.Submit(tk, func(ft *Task) { final = ft })
			for node.FreeCPU() == slots {
				r.eng.RunUntil(r.eng.Now() + 1)
			}
			if tk.State == states.TaskRunning {
				t.Fatal("task started at its placement")
			}
			if !r.agent.CrashInstance(0, "injected crash") {
				t.Fatal("CrashInstance refused a live instance")
			}
			r.eng.RunUntil(r.eng.Now().Add(sim.Second))
			if node.FreeCPU() != slots {
				t.Fatalf("%d of %d slots free after the drop", node.FreeCPU(), slots)
			}
			var reasons []string
			for _, e := range tk.Trace.Edges {
				if e.Kind == profiler.EdgeFailure {
					reasons = append(reasons, e.Ref)
				}
			}
			if want := []string{l.Name() + " down"}; !reflect.DeepEqual(reasons, want) {
				t.Fatalf("failure edges %q, want %q", reasons, want)
			}
			restart := r.eng.Now()
			if !r.agent.RestartInstance(0) {
				t.Fatal("RestartInstance refused the crashed instance")
			}
			r.eng.Run()
			if final == nil || final.State != states.TaskDone || tk.Trace.Retries != 1 {
				t.Fatalf("final %v, retries %d; want DONE after one retry", final, tk.Trace.Retries)
			}
			if tk.Trace.Start <= restart {
				t.Fatalf("task started at %v, before the restart at %v", tk.Trace.Start, restart)
			}
		})
	}
}

// TestRestartAtCrashInstantDropsPipelineRequest: a 1-node Flux instance
// crashes while the task it placed is in its job shell and restarts at the
// same instant. The request was placed under the boot that crashed, so at
// exec it is dropped with "<instance> down" and retried, and the task
// starts only once the restarted instance is up.
func TestRestartAtCrashInstantDropsPipelineRequest(t *testing.T) {
	r := newRig(t, spec.PilotDescription{
		Nodes:      1,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	r.agent.EnableElasticity()
	r.eng.RunUntil(sim.Time(60 * sim.Second)) // agent and instance up
	l := r.agent.Launchers()[0]
	node := l.Partition().Nodes[0]
	slots := node.FreeCPU()
	tk := r.task(&spec.TaskDescription{
		Kind: spec.Executable, CoresPerRank: 1, Ranks: 1, Duration: 10 * sim.Second, MaxRetries: 1,
	}, "p")
	var final *Task
	r.agent.Submit(tk, func(ft *Task) { final = ft })
	for node.FreeCPU() == slots {
		r.eng.RunUntil(r.eng.Now() + 1)
	}
	if !r.agent.CrashInstance(0, "injected crash") || !r.agent.RestartInstance(0) {
		t.Fatal("the instance refused the crash or the restart")
	}
	var up sim.Time = -1
	l.Ready(func() { up = r.eng.Now() })
	r.eng.Run()
	if final == nil || final.State != states.TaskDone || tk.Trace.Retries != 1 {
		t.Fatalf("final %v, retries %d; want DONE after one retry", final, tk.Trace.Retries)
	}
	var reasons []string
	for _, e := range tk.Trace.Edges {
		if e.Kind == profiler.EdgeFailure {
			reasons = append(reasons, e.Ref)
		}
	}
	if want := []string{l.Name() + " down"}; !reflect.DeepEqual(reasons, want) {
		t.Fatalf("failure edges %q, want %q", reasons, want)
	}
	if up < 0 || tk.Trace.Start < up {
		t.Fatalf("task started at %v, instance up at %v", tk.Trace.Start, up)
	}
}
