package core_test

import (
	"testing"

	"rpgo/internal/core"
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

func TestEventLogRecordsStates(t *testing.T) {
	sess := core.NewSession(core.Config{Seed: 6, RecordEvents: true})
	pilot, _ := sess.SubmitPilot(spec.PilotDescription{Nodes: 1})
	tm := sess.TaskManager(pilot)
	tasks := tm.Submit(workload.Null(1))
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	evs := sess.Profiler.EventsFor(tasks[0].TD.UID)
	if len(evs) < 5 {
		t.Fatalf("expected full state trail, got %d events: %+v", len(evs), evs)
	}
	last := evs[len(evs)-1]
	if last.Info != "DONE" {
		t.Fatalf("last state = %q", last.Info)
	}
}
