package fault_test

// Unit tests for the injector itself: schedule determinism, the
// MaxNodeFailures cap, and permanent node loss. Recovery behavior (victim
// relocation, checkpoint restore, blame) is covered by the agent and
// experiments suites.

import (
	"testing"

	"rpgo/internal/core"
	"rpgo/internal/fault"
	"rpgo/internal/model"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/states"
	"rpgo/internal/workload"
)

func runInjector(t *testing.T, fp model.FaultParams, seed uint64) *fault.Injector {
	t.Helper()
	params := model.Default()
	params.Fault = fp
	sess := core.NewSession(core.Config{Seed: seed, Params: &params})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes: 4, SMT: 1,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pilot.Faults == nil {
		t.Fatal("enabled fault params produced no injector")
	}
	sess.Engine.Run()
	return pilot.Faults
}

// TestCrashScanSkipsSrun: srun cannot crash, so a crash the schedule draws
// on the srun instance moves on to the flux instance beside it. Flux then
// crashes on the same draws whichever side of it srun sits, and every
// instance is live again once the schedule has run.
func TestCrashScanSkipsSrun(t *testing.T) {
	run := func(parts ...spec.PartitionConfig) fault.Stats {
		t.Helper()
		params := model.Default()
		params.Fault = model.FaultParams{BackendMTBF: 60, BackendDowntime: 20, Horizon: 600}
		sess := core.NewSession(core.Config{Seed: 3, Params: &params})
		pilot, err := sess.SubmitPilot(spec.PilotDescription{Nodes: 4, SMT: 1, Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		sess.Engine.Run()
		for _, l := range pilot.Agent.Launchers() {
			if !l.Live() {
				t.Errorf("%s is down after the schedule", l.Name())
			}
		}
		return pilot.Faults.Stats()
	}
	srunFirst := run(
		spec.PartitionConfig{Backend: spec.BackendSrun, Instances: 1, NodesPerInstance: 2},
		spec.PartitionConfig{Backend: spec.BackendFlux, Instances: 1},
	)
	fluxFirst := run(
		spec.PartitionConfig{Backend: spec.BackendFlux, Instances: 1, NodesPerInstance: 2},
		spec.PartitionConfig{Backend: spec.BackendSrun, Instances: 1},
	)
	if srunFirst.BackendCrashes < 4 || srunFirst.BackendRestarts != srunFirst.BackendCrashes || srunFirst != fluxFirst {
		t.Fatalf("srun first: %+v\nflux first: %+v\ndraws on srun were not moved to flux", srunFirst, fluxFirst)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	fp := model.FaultParams{
		NodeMTBF: 50, NodeDowntime: 20,
		BackendMTBF: 120, BackendDowntime: 30,
		StragglerFrac: 0.5, StragglerFactor: 2,
		Horizon: 400,
	}
	a := runInjector(t, fp, 7).Stats()
	b := runInjector(t, fp, 7).Stats()
	if a != b {
		t.Fatalf("same seed, different schedules:\n %+v\n %+v", a, b)
	}
	if a.NodeFailures == 0 || a.NodeRestores == 0 {
		t.Fatalf("no node churn fired: %+v", a)
	}
	if a.BackendCrashes == 0 || a.BackendRestarts != a.BackendCrashes {
		t.Fatalf("backend churn unpaired: %+v", a)
	}
	if a.StragglerNodes == 0 {
		t.Fatalf("no stragglers drawn at frac=0.5: %+v", a)
	}
	c := runInjector(t, fp, 8).Stats()
	if a == c {
		t.Fatal("different seeds produced an identical schedule")
	}
}

func TestMaxNodeFailuresCap(t *testing.T) {
	st := runInjector(t, model.FaultParams{
		NodeMTBF: 20, NodeDowntime: 10, Horizon: 1000, MaxNodeFailures: 3,
	}, 7).Stats()
	if st.NodeFailures > 3 {
		t.Fatalf("cap of 3 exceeded: %d failures", st.NodeFailures)
	}
	if st.NodeFailures == 0 {
		t.Fatal("cap suppressed all failures")
	}
	// Restores stay paired with kept failures only.
	if st.NodeRestores > st.NodeFailures {
		t.Fatalf("%d restores for %d failures", st.NodeRestores, st.NodeFailures)
	}
}

func TestPermanentNodeLossShrinksPilot(t *testing.T) {
	inj := runInjector(t, model.FaultParams{
		NodeMTBF: 50, Horizon: 400, // no downtime: losses are permanent
	}, 7)
	st := inj.Stats()
	if st.NodeFailures == 0 {
		t.Fatal("no failures fired")
	}
	if st.NodeRestores != 0 {
		t.Fatalf("permanent losses restored %d nodes", st.NodeRestores)
	}
	if inj.DownNodes() != st.NodeFailures {
		t.Fatalf("%d nodes down, want %d (one per failure, never restored)",
			inj.DownNodes(), st.NodeFailures)
	}
}

func TestTotalPermanentLossFailsEverything(t *testing.T) {
	// Every node dies for good mid-run: queued and backing-off tasks can
	// never place again, so the injector fails the pilot, its drain ends
	// every task FAILED instead of stalling Wait's drain, and the pilot
	// does not read active with no node left.
	params := model.Default()
	params.Fault = model.FaultParams{NodeMTBF: 20, Horizon: 2000}
	sess := core.NewSession(core.Config{Seed: 99, Params: &params})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes: 2, SMT: 1,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks := workload.TrainingFanout(2, 4, 1<<20, sim.Seconds(300))
	for _, td := range tasks {
		td.MaxRetries = 1
	}
	tm := sess.TaskManager(pilot)
	tm.Submit(tasks)
	if err := tm.Wait(); err != nil {
		t.Fatalf("total permanent loss must drain cleanly, got: %v", err)
	}
	failed := 0
	for _, tr := range sess.Profiler.Tasks() {
		if tr.Failed {
			failed++
		}
	}
	if failed != len(tasks) {
		t.Fatalf("%d of %d tasks failed; all must be terminal FAILED", failed, len(tasks))
	}
	if pilot.Faults.DownNodes() != 2 {
		t.Fatalf("%d nodes down, want 2", pilot.Faults.DownNodes())
	}
	if pilot.State != states.PilotFailed {
		t.Fatalf("pilot is %v after losing every node for good, want %v", pilot.State, states.PilotFailed)
	}
}

func TestDisabledParamsAttachNoInjector(t *testing.T) {
	params := model.Default()
	sess := core.NewSession(core.Config{Seed: 7, Params: &params})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes: 2, SMT: 1,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pilot.Faults != nil {
		t.Fatal("zero fault params must not attach an injector")
	}
}
