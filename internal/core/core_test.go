package core_test

import (
	"math"
	"strings"
	"testing"

	"rpgo/internal/agent"
	"rpgo/internal/core"
	"rpgo/internal/model"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/states"
	"rpgo/internal/workload"
)

func TestPilotLifecycle(t *testing.T) {
	sess := core.NewSession(core.Config{Seed: 1})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pilot.State != states.PilotLaunching {
		t.Fatalf("state after submit = %v", pilot.State)
	}
	sess.Run()
	if pilot.State != states.PilotActive {
		t.Fatalf("state after bootstrap = %v", pilot.State)
	}
	if pilot.BootstrapOverhead() <= 0 {
		t.Fatal("bootstrap overhead not recorded")
	}
	if pilot.UID == "" || pilot.Alloc.Size() != 2 {
		t.Fatalf("pilot: %+v", pilot)
	}
}

func TestPilotValidationErrors(t *testing.T) {
	sess := core.NewSession(core.Config{Seed: 1})
	if _, err := sess.SubmitPilot(spec.PilotDescription{Nodes: 0}); err == nil {
		t.Fatal("invalid pilot accepted")
	}
	ss := core.NewShardedSession(core.ShardedConfig{Seed: 1})
	if _, err := ss.SubmitPilot(0, spec.PilotDescription{Nodes: 0}); err == nil {
		t.Fatal("invalid pilot accepted by a sharded session")
	}
}

// TestFaultParamsValidation: SubmitPilot rejects fault parameters the
// injector cannot draw a finite schedule from, naming the field, and
// accepts the boundary values and every zero. Each rejected case carries
// a short horizon, so a build without the check still finishes it fast.
func TestFaultParamsValidation(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	const h = 1e-4
	rejected := []struct {
		fp    model.FaultParams
		field string
	}{
		{model.FaultParams{NodeMTBF: inf}, "NodeMTBF"},
		{model.FaultParams{NodeMTBF: nan}, "NodeMTBF"},
		{model.FaultParams{NodeMTBF: -1}, "NodeMTBF"},
		{model.FaultParams{NodeMTBF: 1e-7, NodeDowntime: 1, Horizon: h}, "NodeMTBF"},
		{model.FaultParams{NodeMTBF: 1, NodeDowntime: -1, Horizon: h}, "NodeDowntime"},
		{model.FaultParams{NodeMTBF: 1, NodeDowntime: 1e-7, Horizon: h}, "NodeDowntime"},
		{model.FaultParams{BackendMTBF: 1e-7, BackendDowntime: 1, Horizon: h}, "BackendMTBF"},
		{model.FaultParams{BackendMTBF: 1, BackendDowntime: 1e-7, Horizon: h}, "BackendDowntime"},
		{model.FaultParams{BackendMTBF: 1, BackendDowntime: -inf, Horizon: h}, "BackendDowntime"},
		{model.FaultParams{StragglerFrac: 1.5, StragglerFactor: 2}, "StragglerFrac"},
		{model.FaultParams{StragglerFrac: -0.5, StragglerFactor: 2}, "StragglerFrac"},
		{model.FaultParams{StragglerFrac: 0.5, StragglerFactor: inf}, "StragglerFactor"},
		{model.FaultParams{NodeMTBF: 1, Horizon: -1}, "Horizon"},
		{model.FaultParams{NodeMTBF: 1, Horizon: nan}, "Horizon"},
		{model.FaultParams{NodeMTBF: 1, Horizon: h, MaxNodeFailures: -1}, "MaxNodeFailures"},
	}
	submit := func(fp model.FaultParams) error {
		params := model.Default()
		params.Fault = fp
		sess := core.NewSession(core.Config{Seed: 1, Params: &params})
		_, err := sess.SubmitPilot(spec.PilotDescription{Nodes: 1,
			Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}}})
		return err
	}
	for _, c := range rejected {
		err := submit(c.fp)
		if err == nil || !strings.Contains(err.Error(), "FaultParams."+c.field+" ") {
			t.Errorf("%+v: err %v, want one naming %s", c.fp, err, c.field)
		}
	}
	for _, fp := range []model.FaultParams{
		{},
		{NodeMTBF: 1e-6, NodeDowntime: 1e-6, BackendMTBF: 1e-6, BackendDowntime: 1e-6, Horizon: 1e-5},
		{StragglerFrac: 1, StragglerFactor: 0.5},
	} {
		if err := submit(fp); err != nil {
			t.Errorf("%+v rejected: %v", fp, err)
		}
	}
}

func TestTaskUIDAssignment(t *testing.T) {
	sess := core.NewSession(core.Config{Seed: 1})
	pilot, _ := sess.SubmitPilot(spec.PilotDescription{Nodes: 1})
	tm := sess.TaskManager(pilot)
	tasks := tm.Submit(workload.Null(3))
	if len(tasks) != 3 {
		t.Fatalf("returned %d tasks", len(tasks))
	}
	seen := map[string]bool{}
	for _, tk := range tasks {
		if tk.TD.UID == "" || seen[tk.TD.UID] {
			t.Fatalf("bad UID %q", tk.TD.UID)
		}
		seen[tk.TD.UID] = true
	}
}

func TestPilotCancelDrainsTasks(t *testing.T) {
	sess := core.NewSession(core.Config{Seed: 2})
	pilot, _ := sess.SubmitPilot(spec.PilotDescription{Nodes: 1})
	tm := sess.TaskManager(pilot)
	tm.Submit(workload.Dummy(100, 1000*sim.Second)) // 56 run, 44 queue
	sess.RunUntil(sim.Time(30 * sim.Second))
	pilot.Cancel("user abort")
	if pilot.State != states.PilotCanceled {
		t.Fatalf("state = %v", pilot.State)
	}
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	var done, failed int
	for _, tr := range sess.Profiler.Tasks() {
		if tr.Failed {
			failed++
		} else {
			done++
		}
	}
	if failed == 0 {
		t.Fatal("cancel should fail queued tasks")
	}
	if done == 0 {
		t.Fatal("running tasks should still complete (graceful drain)")
	}
	// Cancel is idempotent.
	pilot.Cancel("again")
}

// TestCanceledIdlePilotFreesSrunSlots: each Flux instance holds one slot
// of the session-wide srun ceiling while it lives. Once its pilot is
// canceled, an idle instance gives the slot back, so a later pilot gets
// the whole ceiling.
func TestCanceledIdlePilotFreesSrunSlots(t *testing.T) {
	sess := core.NewSession(core.Config{Seed: 7})
	pilot, _ := sess.SubmitPilot(spec.PilotDescription{
		Nodes:      4,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 4}},
	})
	sess.RunUntil(sim.Time(120 * sim.Second))
	if n := sess.Controller.Ceiling().InUse(); n != 4 {
		t.Fatalf("4 Flux instances hold %d srun slots, want 4", n)
	}
	pilot.Cancel("user abort")
	sess.Run()
	if n := sess.Controller.Ceiling().InUse(); n != 0 {
		t.Fatalf("the canceled pilot still holds %d srun slots, want 0", n)
	}
}

// TestCanceledPilotFreesSrunSlotWhenTaskEnds: a canceled pilot's instance
// keeps its srun slot while a task it started still runs, and gives it
// back when that task ends.
func TestCanceledPilotFreesSrunSlotWhenTaskEnds(t *testing.T) {
	sess := core.NewSession(core.Config{Seed: 8})
	pilot, _ := sess.SubmitPilot(spec.PilotDescription{
		Nodes:      1,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	tk := sess.TaskManager(pilot).Submit(workload.Dummy(1, 100*sim.Second))[0]
	sess.RunUntil(sim.Time(60 * sim.Second))
	if tk.State != states.TaskRunning {
		t.Fatalf("task is %v at 60 s, want running", tk.State)
	}
	pilot.Cancel("user abort")
	sess.RunUntil(tk.Trace.Start.Add(99 * sim.Second))
	if n := sess.Controller.Ceiling().InUse(); n != 1 {
		t.Fatalf("the instance holds %d srun slots while its task runs, want 1", n)
	}
	sess.Run()
	if tk.State != states.TaskDone {
		t.Fatalf("the running task ended %v, want done", tk.State)
	}
	if n := sess.Controller.Ceiling().InUse(); n != 0 {
		t.Fatalf("the instance still holds %d srun slots after its task ended", n)
	}
}

func TestPilotWalltimeCancel(t *testing.T) {
	sess := core.NewSession(core.Config{Seed: 3})
	pilot, _ := sess.SubmitPilot(spec.PilotDescription{
		Nodes:   1,
		Runtime: 50 * sim.Second,
	})
	tm := sess.TaskManager(pilot)
	tm.Submit(workload.Dummy(100, 1000*sim.Second))
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	if pilot.State != states.PilotCanceled {
		t.Fatalf("pilot should hit its walltime, state = %v", pilot.State)
	}
}

// TestPilotCanceledBeforeBootstrap: a pilot canceled before its agent is
// up, by Cancel or by a Runtime shorter than the bootstrap, stays
// canceled when the agent comes up. Its tasks fail, and it boots no
// backend instance, so it holds no srun slot.
func TestPilotCanceledBeforeBootstrap(t *testing.T) {
	for _, tc := range []struct {
		name    string
		runtime sim.Duration
		cancel  sim.Time // when positive, Cancel runs at this time
	}{
		{name: "cancel at 100 ms", cancel: sim.Time(100 * sim.Millisecond)},
		{name: "1-s runtime", runtime: sim.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess := core.NewSession(core.Config{Seed: 30})
			pilot, err := sess.SubmitPilot(spec.PilotDescription{
				Nodes:      2,
				Runtime:    tc.runtime,
				Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 2}},
			})
			if err != nil {
				t.Fatal(err)
			}
			tm := sess.TaskManager(pilot)
			tasks := tm.Submit(workload.Dummy(8, 10*sim.Second))
			if tc.cancel > 0 {
				sess.RunUntil(tc.cancel)
				pilot.Cancel("user abort")
			}
			if err := tm.Wait(); err != nil {
				t.Fatal(err)
			}
			if pilot.State != states.PilotCanceled {
				t.Fatalf("pilot is %v after the agent came up, want canceled", pilot.State)
			}
			for _, tk := range tasks {
				if tk.State != states.TaskFailed {
					t.Errorf("task %s ended %v, want failed", tk.TD.UID, tk.State)
				}
			}
			if n := len(pilot.Agent.Launchers()); n != 0 {
				t.Errorf("the canceled pilot booted %d backend instances", n)
			}
			if n := sess.Controller.Ceiling().InUse(); n != 0 {
				t.Errorf("the canceled pilot holds %d srun slots, want 0", n)
			}
		})
	}
}

// TestDeterministicReplay runs an identical configuration twice and demands
// bit-identical task timelines — the foundation of every paper-vs-measured
// claim experiments.ReportClaims prints (go run ./cmd/rpbench -only claims).
func TestDeterministicReplay(t *testing.T) {
	run := func() []sim.Time {
		sess := core.NewSession(core.Config{Seed: 77})
		pilot, _ := sess.SubmitPilot(spec.PilotDescription{
			Nodes: 4,
			Partitions: []spec.PartitionConfig{
				{Backend: spec.BackendFlux, Instances: 2, NodeShare: 0.5},
				{Backend: spec.BackendDragon, Instances: 1, NodeShare: 0.5},
			},
		})
		tm := sess.TaskManager(pilot)
		tm.Submit(workload.Mixed(100, 100, 30*sim.Second))
		if err := tm.Wait(); err != nil {
			t.Fatal(err)
		}
		var out []sim.Time
		for _, tr := range sess.Profiler.Tasks() {
			out = append(out, tr.Start, tr.End, tr.Final)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestSeedChangesOutcome guards against accidentally ignoring the seed.
func TestSeedChangesOutcome(t *testing.T) {
	run := func(seed uint64) sim.Time {
		sess := core.NewSession(core.Config{Seed: seed})
		pilot, _ := sess.SubmitPilot(spec.PilotDescription{
			Nodes:      2,
			Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
		})
		tm := sess.TaskManager(pilot)
		tm.Submit(workload.Dummy(50, 10*sim.Second))
		if err := tm.Wait(); err != nil {
			t.Fatal(err)
		}
		return sess.Profiler.Tasks()[49].End
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical outcomes")
	}
}

func TestMultiplePilotsShareCeiling(t *testing.T) {
	sess := core.NewSession(core.Config{Seed: 5})
	p1, _ := sess.SubmitPilot(spec.PilotDescription{Nodes: 2})
	p2, _ := sess.SubmitPilot(spec.PilotDescription{Nodes: 2})
	tm1 := sess.TaskManager(p1)
	tm2 := sess.TaskManager(p2)
	tm1.Submit(workload.Dummy(112, 100*sim.Second))
	tm2.Submit(workload.Dummy(112, 100*sim.Second))
	sess.Run()
	// Two pilots of 112 slots each: the machine-wide ceiling still
	// binds the sum.
	if hw := sess.Controller.Ceiling().HighWater; hw > 112 {
		t.Fatalf("ceiling high water across pilots = %d", hw)
	}
	if len(sess.Pilots()) != 2 {
		t.Fatalf("pilots = %d", len(sess.Pilots()))
	}
}

// TestWaitReportsTasksThatNeverFinish: an empty Submit makes no task, and
// when replicas hold every slot of the pilot, its tasks can never start,
// the event queue drains, and Wait says how many never finished.
func TestWaitReportsTasksThatNeverFinish(t *testing.T) {
	sess := core.NewSession(core.Config{Seed: 1})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{Nodes: 1,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pilot.DeployService(spec.ServiceDescription{
		Name: "hog", Replicas: 56, BaseLatency: sim.Second,
	}); err != nil {
		t.Fatal(err)
	}
	tm := sess.TaskManager(pilot)
	if tasks := tm.Submit(nil); tasks != nil {
		t.Fatalf("an empty Submit made %d tasks", len(tasks))
	}
	tm.Submit(workload.Null(3))
	if err := tm.Wait(); err == nil || err.Error() != "core: 3 of 3 tasks never finished" {
		t.Fatalf("Wait: %v, want 3 of 3 tasks never finished", err)
	}
}

// lostDragonPilot returns a task manager of a 1-node Dragon pilot whose
// startup timeout is timeout seconds.
func lostDragonPilot(t *testing.T, seed uint64, timeout float64, fp model.FaultParams) (*core.TaskManager, *core.Pilot) {
	t.Helper()
	params := model.Default()
	params.Dragon.StartupTimeout = timeout
	params.Fault = fp
	sess := core.NewSession(core.Config{Seed: seed, Params: &params})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{Nodes: 1,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendDragon, Instances: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	return sess.TaskManager(pilot), pilot
}

// checkLostGroupFailed waits for the tasks and wants every one FAILED with
// a reason naming the Dragon group.
func checkLostGroupFailed(t *testing.T, tm *core.TaskManager, tasks []*agent.Task) {
	t.Helper()
	if err := tm.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for _, tk := range tasks {
		if tk.State != states.TaskFailed || tk.Reason != "every dragon instance failed to start" {
			t.Errorf("task %s ended %v (%q), want FAILED naming dragon", tk.TD.UID, tk.State, tk.Reason)
		}
	}
}

// TestGroupLostAtStartupFailsItsTasks: a Dragon instance that fails its
// startup timeout never comes back, so the tasks parked for its group fail
// instead of stranding, and so does a task routed to it later.
func TestGroupLostAtStartupFailsItsTasks(t *testing.T) {
	tm, pilot := lostDragonPilot(t, 1, 1e-3, model.FaultParams{})
	checkLostGroupFailed(t, tm, tm.Submit(workload.Null(4)))
	if !pilot.Agent.Launchers()[0].Failed() {
		t.Fatal("the instance came up within 1 ms")
	}
	checkLostGroupFailed(t, tm, tm.Submit(workload.Null(1)))
}

// TestGroupLostOnRestartFailsItsTasks: under a fault injector the Dragon
// instance comes up, crashes, and its restart misses the 9-s startup
// timeout (seed 3 draws an 8.5-s first boot). The retried tasks parked for
// the restart fail once the restart fails for good.
func TestGroupLostOnRestartFailsItsTasks(t *testing.T) {
	tm, pilot := lostDragonPilot(t, 3, 9, model.FaultParams{BackendMTBF: 30, BackendDowntime: 5, Horizon: 200})
	tds := make([]*spec.TaskDescription, 4)
	for i := range tds {
		tds[i] = &spec.TaskDescription{
			Kind: spec.Function, CoresPerRank: 1, Ranks: 1, Duration: 60 * sim.Second, MaxRetries: 3,
		}
	}
	checkLostGroupFailed(t, tm, tm.Submit(tds))
	l := pilot.Agent.Launchers()[0]
	if l.BootstrapOverhead() == 0 || pilot.Faults.Stats().BackendRestarts == 0 || !l.Failed() {
		t.Fatalf("boot %v, %d restarts, failed %v; want a boot, a restart and a failure",
			l.BootstrapOverhead(), pilot.Faults.Stats().BackendRestarts, l.Failed())
	}
}
