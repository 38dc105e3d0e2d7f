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

// TestStragglersStretchCompute: a task on a slow node runs StragglerFactor
// times its Duration and one on a nominal node runs its Duration; a
// multi-node task runs at its slowest node's factor, whichever of its nodes
// that is. On 2 nodes at StragglerFrac 0.5, seed 1 draws node 0 slow and
// seed 6 draws node 1 slow.
func TestStragglersStretchCompute(t *testing.T) {
	const d = 100 * sim.Second
	run := func(fp model.FaultParams, seed uint64, tds ...*spec.TaskDescription) map[string]sim.Duration {
		t.Helper()
		params := model.Default()
		params.Fault = fp
		sess := core.NewSession(core.Config{Seed: seed, Params: &params})
		pilot, err := sess.SubmitPilot(spec.PilotDescription{Nodes: 2, SMT: 1,
			Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		tm := sess.TaskManager(pilot)
		tm.Submit(tds)
		if err := tm.Wait(); err != nil {
			t.Fatal(err)
		}
		ran := make(map[string]sim.Duration)
		for _, tr := range sess.Profiler.Tasks() {
			if tr.Failed {
				t.Fatalf("task %s failed: %v", tr.UID, tr.Edges)
			}
			ran[tr.UID] = tr.End.Sub(tr.Start)
		}
		return ran
	}
	for _, c := range []struct {
		frac float64
		want sim.Duration
	}{{1, 2 * d}, {0, d}} {
		ran := run(model.FaultParams{StragglerFrac: c.frac, StragglerFactor: 2}, 1,
			&spec.TaskDescription{UID: "t", CoresPerRank: 1, Ranks: 1, Duration: d})
		if ran["t"] != c.want {
			t.Errorf("StragglerFrac %v: ran %v, want %v", c.frac, ran["t"], c.want)
		}
	}
	for _, c := range []struct {
		seed       uint64
		slow, fast string
	}{{1, "a", "b"}, {6, "b", "a"}} {
		// a and b fill one node each; ab waits for both.
		ran := run(model.FaultParams{StragglerFrac: 0.5, StragglerFactor: 2}, c.seed,
			&spec.TaskDescription{UID: "a", CoresPerRank: 1, Ranks: 56, Duration: d},
			&spec.TaskDescription{UID: "b", CoresPerRank: 1, Ranks: 56, Duration: d},
			&spec.TaskDescription{UID: "ab", Nodes: 2, CoresPerRank: 1, Ranks: 112, Duration: d})
		if ran[c.slow] != 2*d || ran[c.fast] != d || ran["ab"] != 2*d {
			t.Errorf("seed %d: ran %v; want %s %v, %s %v and the 2-node ab %v",
				c.seed, ran, c.slow, 2*d, c.fast, d, 2*d)
		}
	}
}

// TestCrashBeforeAgentUpIsANoOp: crashes drawn before the agent has
// bootstrapped (2 s) find no instance to kill. They fire, so the engine
// runs more events than without them, but none counts, and the instance
// boots and stays up.
func TestCrashBeforeAgentUpIsANoOp(t *testing.T) {
	run := func(fp model.FaultParams) (*core.Pilot, uint64) {
		t.Helper()
		params := model.Default()
		params.Fault = fp
		sess := core.NewSession(core.Config{Seed: 3, Params: &params})
		pilot, err := sess.SubmitPilot(spec.PilotDescription{Nodes: 4, SMT: 1,
			Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		sess.Engine.Run()
		return pilot, sess.Engine.Steps()
	}
	_, quiet := run(model.FaultParams{})
	pilot, steps := run(model.FaultParams{BackendMTBF: 0.2, BackendDowntime: 0.1, Horizon: 1.9})
	if st := pilot.Faults.Stats(); steps <= quiet || st.BackendCrashes != 0 || st.BackendRestarts != 0 {
		t.Fatalf("%d events (%d without faults), stats %+v; want crashes that fire and count nothing",
			steps, quiet, st)
	}
	if l := pilot.Agent.Launchers()[0]; !l.Live() {
		t.Fatal("the instance is down after crashes drawn before it existed")
	}
}
