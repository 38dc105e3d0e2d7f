package agent

import (
	"strings"
	"testing"

	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/slurm"
	"rpgo/internal/spec"
	"rpgo/internal/states"
)

type rig struct {
	eng   *sim.Engine
	agent *Agent
	prof  *profiler.Profiler
	ctrl  *slurm.Controller
}

func newRig(t *testing.T, pd spec.PilotDescription) *rig {
	t.Helper()
	return newRigParams(t, pd, model.Default())
}

func newRigParams(t *testing.T, pd spec.PilotDescription, params model.Params) *rig {
	t.Helper()
	eng := sim.NewEngine()
	src := rng.New(21)
	ctrl := slurm.NewController(eng, params.Srun, src)
	smt := pd.SMT
	if smt == 0 {
		smt = 1
	}
	cluster := platform.NewCluster(platform.Frontier(smt), pd.Nodes)
	alloc := cluster.Allocate(pd.Nodes)
	prof := profiler.New()
	a := New(pd, eng, ctrl, alloc, prof, src, params)
	return &rig{eng: eng, agent: a, prof: prof, ctrl: ctrl}
}

func (r *rig) task(td *spec.TaskDescription, uid string) *Task {
	tr := r.prof.Task(uid)
	tr.Submit = r.eng.Now()
	td.UID = uid
	return &Task{TD: td, State: states.TaskTMGRSchedule, Trace: tr}
}

func TestRoutingByModality(t *testing.T) {
	r := newRig(t, spec.PilotDescription{
		Nodes: 4,
		Partitions: []spec.PartitionConfig{
			{Backend: spec.BackendFlux, Instances: 1, NodeShare: 0.5},
			{Backend: spec.BackendDragon, Instances: 1, NodeShare: 0.5},
		},
	})
	exec := r.task(&spec.TaskDescription{Kind: spec.Executable, CoresPerRank: 1, Ranks: 1}, "e")
	fn := r.task(&spec.TaskDescription{Kind: spec.Function, CoresPerRank: 1, Ranks: 1}, "f")
	done := 0
	r.agent.Submit(exec, func(*Task) { done++ })
	r.agent.Submit(fn, func(*Task) { done++ })
	r.eng.Run()
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	if !strings.HasPrefix(exec.Trace.Backend, "flux") {
		t.Errorf("executable routed to %q, want flux", exec.Trace.Backend)
	}
	if !strings.HasPrefix(fn.Trace.Backend, "dragon") {
		t.Errorf("function routed to %q, want dragon", fn.Trace.Backend)
	}
}

func TestPinnedBackendOverridesModality(t *testing.T) {
	r := newRig(t, spec.PilotDescription{
		Nodes: 4,
		Partitions: []spec.PartitionConfig{
			{Backend: spec.BackendFlux, Instances: 1, NodeShare: 0.5},
			{Backend: spec.BackendDragon, Instances: 1, NodeShare: 0.5},
		},
	})
	// An executable pinned to Dragon must go to Dragon.
	tk := r.task(&spec.TaskDescription{Kind: spec.Executable, Backend: spec.BackendDragon, CoresPerRank: 1, Ranks: 1}, "p")
	r.agent.Submit(tk, func(*Task) {})
	r.eng.Run()
	if !strings.HasPrefix(tk.Trace.Backend, "dragon") {
		t.Fatalf("pinned task ran on %q", tk.Trace.Backend)
	}
}

func TestMissingBackendFailsTask(t *testing.T) {
	r := newRig(t, spec.PilotDescription{
		Nodes:      2,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	tk := r.task(&spec.TaskDescription{Kind: spec.Executable, Backend: spec.BackendSrun, CoresPerRank: 1, Ranks: 1}, "x")
	var final *Task
	r.agent.Submit(tk, func(tt *Task) { final = tt })
	r.eng.Run()
	if final == nil || final.State != states.TaskFailed {
		t.Fatalf("task pinned to absent backend: %+v", final)
	}
}

func TestFullLifecycleStates(t *testing.T) {
	r := newRig(t, spec.PilotDescription{Nodes: 1})
	tk := r.task(&spec.TaskDescription{
		CoresPerRank: 1, Ranks: 1,
		Duration: 10 * sim.Second,
	}, "life")
	var final *Task
	r.agent.Submit(tk, func(tt *Task) { final = tt })
	r.eng.Run()
	if final == nil || final.State != states.TaskDone {
		t.Fatalf("final: %+v", final)
	}
	tr := tk.Trace
	// Timestamp ordering across the whole pipeline.
	if !(tr.Submit <= tr.Scheduled && tr.Scheduled <= tr.Launch &&
		tr.Launch <= tr.Start && tr.Start < tr.End && tr.End <= tr.Final) {
		t.Fatalf("trace out of order: %+v", tr)
	}
	if d := tr.End.Sub(tr.Start); d != 10*sim.Second {
		t.Fatalf("execution span %v", d)
	}
}

func TestValidationFailure(t *testing.T) {
	r := newRig(t, spec.PilotDescription{Nodes: 1})
	tk := r.task(&spec.TaskDescription{Ranks: 100, CoresPerRank: 1}, "bad")
	var final *Task
	r.agent.Submit(tk, func(tt *Task) { final = tt })
	r.eng.Run()
	if final == nil || final.State != states.TaskFailed || final.Reason == "" {
		t.Fatalf("invalid task: %+v", final)
	}
}

// TestFinishTwicePanics: no production path finishes a task twice, so a
// second finish is a bug; it must panic naming the task and both states,
// and its done callback must not run again.
func TestFinishTwicePanics(t *testing.T) {
	r := newRig(t, spec.PilotDescription{Nodes: 1})
	tk := r.task(&spec.TaskDescription{Ranks: 100, CoresPerRank: 1}, "twice")
	calls := 0
	r.agent.Submit(tk, func(*Task) { calls++ })
	if tk.State != states.TaskFailed || calls != 1 {
		t.Fatalf("invalid task ended %v with %d done calls", tk.State, calls)
	}
	defer func() {
		msg, _ := recover().(string)
		if want := "agent: task twice finished twice: FAILED, then DONE"; msg != want {
			t.Errorf("panic %q, want %q", msg, want)
		}
		if calls != 1 || r.agent.Final() != 1 {
			t.Errorf("second finish ran: %d done calls, %d final", calls, r.agent.Final())
		}
	}()
	r.agent.finish(tk, states.TaskDone, "")
}

func TestPartitionLayoutFixedAndShared(t *testing.T) {
	r := newRig(t, spec.PilotDescription{
		Nodes: 10,
		Partitions: []spec.PartitionConfig{
			{Backend: spec.BackendFlux, Instances: 2, NodesPerInstance: 2}, // 4 fixed
			{Backend: spec.BackendDragon, Instances: 3},                    // 6 shared
		},
	})
	r.eng.Run()
	ls := r.agent.Launchers()
	if len(ls) != 5 {
		t.Fatalf("launchers = %d, want 5", len(ls))
	}
	var fluxNodes, dragonNodes int
	for _, l := range ls {
		switch l.Backend() {
		case spec.BackendFlux:
			if l.Nodes() != 2 {
				t.Errorf("flux instance has %d nodes, want 2", l.Nodes())
			}
			fluxNodes += l.Nodes()
		case spec.BackendDragon:
			dragonNodes += l.Nodes()
		}
	}
	if fluxNodes != 4 || dragonNodes != 6 {
		t.Fatalf("split: flux=%d dragon=%d, want 4/6", fluxNodes, dragonNodes)
	}
}

func TestRetryAfterInstanceCrash(t *testing.T) {
	r := newRig(t, spec.PilotDescription{
		Nodes:      4,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendDragon, Instances: 2}},
	})
	var tasks []*Task
	doneCount := 0
	failCount := 0
	for i := 0; i < 40; i++ {
		tk := r.task(&spec.TaskDescription{
			Kind: spec.Function, CoresPerRank: 1, Ranks: 1,
			Duration:   60 * sim.Second,
			MaxRetries: 3,
		}, "r"+string(rune('0'+i%10))+string(rune('a'+i/10)))
		tasks = append(tasks, tk)
		r.agent.Submit(tk, func(tt *Task) {
			if tt.State == states.TaskDone {
				doneCount++
			} else {
				failCount++
			}
		})
	}
	// Let everything start, then kill one runtime.
	r.eng.RunUntil(sim.Time(30 * sim.Second))
	crashed := false
	for _, l := range r.agent.Launchers() {
		if !crashed {
			crashed = l.Crash("injected instance failure")
		}
	}
	r.eng.Run()
	if !crashed {
		t.Fatal("no crashable launcher found")
	}
	if failCount != 0 {
		t.Fatalf("%d tasks failed despite retries on the surviving instance", failCount)
	}
	if doneCount != 40 {
		t.Fatalf("done = %d, want 40", doneCount)
	}
	retried := 0
	for _, tk := range tasks {
		if tk.Trace.Retries > 0 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("expected at least one retried task")
	}
}

func TestRetriesExhaustedFails(t *testing.T) {
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
		t.Fatalf("task should fail after retries exhaust: %+v", final)
	}
	// The first retry finds no live instance left and fails fast rather
	// than burning the remaining budget.
	if tk.Trace.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1", tk.Trace.Retries)
	}
	if final.Reason == "" {
		t.Fatal("failure reason missing")
	}
}

func TestDrainFailsPendingTasks(t *testing.T) {
	r := newRig(t, spec.PilotDescription{Nodes: 1})
	failed := 0
	for i := 0; i < 60; i++ {
		tk := r.task(&spec.TaskDescription{CoresPerRank: 1, Ranks: 1, Duration: 500 * sim.Second}, "d"+string(rune('0'+i%10))+string(rune('a'+i/10)))
		r.agent.Submit(tk, func(tt *Task) {
			if tt.State == states.TaskFailed {
				failed++
			}
		})
	}
	r.eng.RunUntil(sim.Time(20 * sim.Second))
	r.agent.Drain("pilot canceled")
	r.eng.Run()
	if failed == 0 {
		t.Fatal("drain should fail queued tasks")
	}
	if r.agent.Final() != 60 {
		t.Fatalf("final = %d, want 60", r.agent.Final())
	}
}

func TestSubmitBeforeBackendBootstrapParks(t *testing.T) {
	r := newRig(t, spec.PilotDescription{
		Nodes:      2,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	// Submit immediately — the agent hasn't bootstrapped its backends
	// yet (AgentBootstrap is 2 s).
	tk := r.task(&spec.TaskDescription{CoresPerRank: 1, Ranks: 1, Duration: sim.Second}, "early")
	var final *Task
	r.agent.Submit(tk, func(tt *Task) { final = tt })
	r.eng.Run()
	if final == nil || final.State != states.TaskDone {
		t.Fatalf("early-submitted task: %+v", final)
	}
}

func TestLeastLoadedBalancing(t *testing.T) {
	r := newRig(t, spec.PilotDescription{
		Nodes:      4,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 2}},
	})
	for i := 0; i < 200; i++ {
		tk := r.task(&spec.TaskDescription{CoresPerRank: 1, Ranks: 1}, "b"+string(rune('0'+i%10))+string(rune('a'+(i/10)%26))+string(rune('A'+i/260)))
		r.agent.Submit(tk, func(*Task) {})
	}
	r.eng.Run()
	counts := map[string]uint64{}
	for _, l := range r.agent.Launchers() {
		counts[l.Name()] = l.Stats().Started
	}
	if len(counts) != 2 {
		t.Fatalf("launchers: %v", counts)
	}
	for name, n := range counts {
		if n == 0 {
			t.Fatalf("instance %s got no tasks: %v", name, counts)
		}
	}
}
