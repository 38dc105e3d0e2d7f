package core_test

// A task's done callback runs inside the agent operation that finalizes
// the task: inside a launcher's completion, Drain's walk of the parked
// tasks (from a Cancel, or from the fault injector when the last node is
// lost for good), the parked-task replay after bootstrap, or TaskManager's
// loop over a submit batch. These tests put user code that submits, kills
// tasks and cancels the pilot into that callback and check that every
// task still ends exactly once.

import (
	"testing"

	"rpgo/internal/agent"
	"rpgo/internal/core"
	"rpgo/internal/model"
	"rpgo/internal/obs"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/states"
	"rpgo/internal/workload"
)

// reentryRun is one session whose task manager counts the completions of
// every task it submits and then runs the test's react.
type reentryRun struct {
	t     *testing.T
	sess  *core.Session
	pilot *core.Pilot
	tm    *core.TaskManager
	tasks []*agent.Task
	done  map[*agent.Task]int
	// fold counts the traces the profiler hands on, one per terminal
	// state a task enters.
	fold  *obs.Fold
	react func(*agent.Task)
}

func newReentryRun(t *testing.T, params *model.Params, pd spec.PilotDescription) *reentryRun {
	t.Helper()
	fold := obs.NewFold()
	sess := core.NewSession(core.Config{Seed: 29, Params: params, Sink: fold})
	pilot, err := sess.SubmitPilot(pd)
	if err != nil {
		t.Fatal(err)
	}
	r := &reentryRun{t: t, sess: sess, pilot: pilot, done: map[*agent.Task]int{}, fold: fold}
	r.tm = sess.TaskManager(pilot)
	r.tm.OnComplete = func(tk *agent.Task) {
		r.done[tk]++
		if r.react != nil {
			r.react(tk)
		}
	}
	return r
}

func (r *reentryRun) submit(tds []*spec.TaskDescription) {
	r.tasks = append(r.tasks, r.tm.Submit(tds)...)
}

// runToActive runs the session until the pilot is active.
func (r *reentryRun) runToActive() {
	for r.pilot.State != states.PilotActive {
		r.sess.RunUntil(r.sess.Engine.Now().Add(100 * sim.Millisecond))
	}
}

// check drives the session to quiescence and asserts that every task ended
// in exactly one terminal state, with a trace of its own, and had its done
// callback fire exactly once, and that the agent counts every submitted
// task final. A second terminal transition would panic in states.Validate,
// and the trace sink sees one trace per task.
func (r *reentryRun) check() {
	t := r.t
	t.Helper()
	if err := r.tm.Wait(); err != nil {
		t.Fatal(err)
	}
	ag := r.pilot.Agent
	if ag.Submitted() != len(r.tasks) || ag.Final() != ag.Submitted() {
		t.Errorf("agent: %d submitted, %d final; the test submitted %d", ag.Submitted(), ag.Final(), len(r.tasks))
	}
	traces := map[*profiler.TaskTrace]bool{}
	failed := 0
	for _, tk := range r.tasks {
		if !tk.State.Final() {
			t.Errorf("task %s ended %v", tk.TD.UID, tk.State)
		}
		if n := r.done[tk]; n != 1 {
			t.Errorf("task %s: done fired %d times", tk.TD.UID, n)
		}
		tr := tk.Trace
		if tr == nil || traces[tr] || tr.UID != tk.TD.UID {
			t.Errorf("task %s has no trace of its own", tk.TD.UID)
			continue
		}
		traces[tr] = true
		if tr.Failed != (tk.State == states.TaskFailed) || tr.Final < tr.Submit {
			t.Errorf("task %s: trace failed=%t final=%v submit=%v for state %v",
				tk.TD.UID, tr.Failed, tr.Final, tr.Submit, tk.State)
		}
		if tr.Failed {
			failed++
		}
	}
	if r.fold.Tasks() != len(r.tasks) || r.fold.Failed() != failed {
		t.Errorf("the sink saw %d traces final, %d failed; the test submitted %d tasks, %d failed",
			r.fold.Tasks(), r.fold.Failed(), len(r.tasks), failed)
	}
}

// TestOnCompleteSubmits: a completion callback that submits more work.
func TestOnCompleteSubmits(t *testing.T) {
	r := newReentryRun(t, nil, spec.PilotDescription{Nodes: 1})
	r.react = func(tk *agent.Task) {
		if len(r.tasks) < 60 {
			r.submit(workload.Dummy(2, sim.Second))
		}
	}
	r.submit(workload.Dummy(8, 10*sim.Second))
	r.check()
	if len(r.tasks) < 60 {
		t.Fatalf("only %d tasks submitted", len(r.tasks))
	}
}

// TestOnCompleteKillsOtherTasks: the first completion evicts every task
// running on one node, and the second crashes the other backend instance,
// failing its queued and running tasks.
func TestOnCompleteKillsOtherTasks(t *testing.T) {
	r := newReentryRun(t, nil, spec.PilotDescription{
		Nodes:      2,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 2}},
	})
	completions := 0
	r.react = func(tk *agent.Task) {
		completions++
		switch completions {
		case 1:
			r.pilot.Agent.FailNode(r.pilot.Alloc.Nodes[0].ID, "evicted")
		case 2:
			r.pilot.Agent.CrashInstance(1, "crashed")
		}
	}
	tds := workload.Dummy(300, 0)
	for i, td := range tds {
		td.Duration = sim.Duration(1+i%7) * sim.Second
	}
	r.submit(tds)
	r.check()
	reasons := map[string]int{}
	for _, tk := range r.tasks {
		reasons[tk.Reason]++
	}
	if reasons["evicted"] == 0 || reasons["crashed"] == 0 {
		t.Fatalf("failure reasons %v: the callback killed nothing", reasons)
	}
}

// TestOnCompleteCancelsPilot: every completion cancels the pilot. The
// first comes from a task in the middle of the batch that no backend can
// run, while the tasks ahead of it wait for the Flux instance to boot, so
// Drain finalizes them, and each of their callbacks cancels the pilot
// again from inside Drain. Submitted at once, the batch reaches the agent
// before its backends exist, and the stray task is finalized inside the
// one event that replays the parked tasks; submitted once the pilot is
// active, inside the agent scheduler's completion.
func TestOnCompleteCancelsPilot(t *testing.T) {
	for _, active := range []bool{false, true} {
		r := newReentryRun(t, nil, spec.PilotDescription{
			Nodes:      1,
			Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
		})
		r.react = func(*agent.Task) { r.pilot.Cancel("stop") }
		if active {
			r.runToActive()
		}
		tds := workload.Dummy(20, 10*sim.Second)
		tds[10].Backend = spec.BackendDragon
		r.submit(tds)
		r.check()
		if r.pilot.State != states.PilotCanceled {
			t.Errorf("active=%t: pilot ended %v", active, r.pilot.State)
		}
		drained := 0
		for _, tk := range r.tasks {
			if tk.Reason == "stop" && tk.Trace.Launch < 0 { // never reached a backend
				drained++
			}
		}
		if drained < 2 {
			t.Fatalf("active=%t: Drain finalized %d parked tasks; the test needs at least 2", active, drained)
		}
	}
}

// TestPermanentLossDrainCancelsPilot: when the pilot's last node fails for
// good, the fault injector ends the pilot FAILED, then drains the agent.
// The tasks a crashed backend parked fail inside that Drain, and the first
// one's callback cancels the pilot, which finds it final already and does
// nothing; every parked task must end once, with the loss as its reason.
func TestPermanentLossDrainCancelsPilot(t *testing.T) {
	params := model.Default()
	// No NodeDowntime: node loss is permanent. A BackendMTBF lets the
	// agent park the tasks no live instance fits; at this mean no crash is
	// drawn within the horizon, so the test's own crash is the only one.
	params.Fault = model.FaultParams{NodeMTBF: 1000, BackendMTBF: 1e9, Horizon: 20000}
	r := newReentryRun(t, &params, spec.PilotDescription{
		Nodes:      1,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	r.runToActive()
	tds := workload.Dummy(8, 100*sim.Second)
	for _, td := range tds {
		td.MaxRetries = 1
	}
	r.submit(tds)
	r.sess.RunUntil(r.sess.Engine.Now().Add(30 * sim.Second))
	for _, tk := range r.tasks {
		if tk.State != states.TaskRunning {
			t.Fatalf("task %s is %v before the crash; the test needs every task running", tk.TD.UID, tk.State)
		}
	}
	if !r.pilot.Agent.CrashInstance(0, "crashed") {
		t.Fatal("the Flux instance did not crash")
	}
	// Past the retry backoff: every task is parked again, and the node
	// is still up.
	r.sess.RunUntil(r.sess.Engine.Now().Add(5 * sim.Second))
	if r.pilot.Faults.DownNodes() != 0 || r.pilot.Agent.Final() != 0 {
		t.Fatalf("before the node loss: %d nodes down, %d tasks final; the test needs 0 and 0",
			r.pilot.Faults.DownNodes(), r.pilot.Agent.Final())
	}
	r.react = func(*agent.Task) { r.pilot.Cancel("stop") }
	r.check()
	if r.pilot.State != states.PilotFailed || r.pilot.Faults.DownNodes() != 1 {
		t.Errorf("pilot ended %v with %d nodes down", r.pilot.State, r.pilot.Faults.DownNodes())
	}
	for _, tk := range r.tasks {
		parked := tk.State == states.TaskFailed && tk.Reason == "all pilot nodes permanently failed"
		if !parked || tk.Trace.Retries != 1 {
			t.Errorf("task %s: retries %d, reason %q; every task must fail parked, in a Drain",
				tk.TD.UID, tk.Trace.Retries, tk.Reason)
		}
	}
}

// TestSubmitRefusalsReact: the agent refuses a reused UID, an invalid
// description and any task of a draining pilot at once, so their callbacks
// run inside the task manager's loop over the batch. Each refusal submits
// one more task, and the third also cancels the pilot.
func TestSubmitRefusalsReact(t *testing.T) {
	r := newReentryRun(t, nil, spec.PilotDescription{Nodes: 1})
	refusals := 0
	r.react = func(tk *agent.Task) {
		if tk.State != states.TaskFailed || refusals >= 40 {
			return
		}
		refusals++
		td := workload.Dummy(1, sim.Second)[0]
		if refusals%2 == 0 {
			td.Duration = -1 // invalid
		}
		r.submit([]*spec.TaskDescription{td})
		if refusals == 3 {
			r.pilot.Cancel("stop")
		}
	}
	r.runToActive()
	batch := workload.Dummy(6, 5*sim.Second)
	batch[1].UID, batch[2].UID = "dup", "dup"
	batch[4].Duration = -1
	r.submit(batch)
	r.check()
	if refusals < 4 {
		t.Fatalf("%d refusals; the test needs the reused UID, the invalid task and the draining pilot", refusals)
	}
	reasons := map[string]bool{}
	for _, tk := range r.tasks {
		reasons[tk.Reason] = true
	}
	for _, want := range []string{`task UID "dup" already used in this session`, "pilot is draining"} {
		if !reasons[want] {
			t.Errorf("no task failed with %q", want)
		}
	}
}
