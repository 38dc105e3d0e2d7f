package flux

import (
	"testing"

	"rpgo/internal/launch"
	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/slurm"
	"rpgo/internal/spec"
)

func newRig(nodes int) (*sim.Engine, *Instance, *slurm.Controller) {
	return newRigWith(nodes, model.Default().Flux)
}

// newRigWith is newRig with the instance's cost model given.
func newRigWith(nodes int, fp model.FluxParams) (*sim.Engine, *Instance, *slurm.Controller) {
	eng := sim.NewEngine()
	src := rng.New(11)
	ctrl := slurm.NewController(eng, model.Default().Srun, src)
	cluster := platform.NewCluster(platform.Frontier(1), nodes)
	in := NewInstance(Config{Name: "flux.t", Params: fp}, eng, ctrl, cluster.Allocate(nodes), src)
	return eng, in, ctrl
}

// checkSlotsFree fails the test unless every node of the allocation has all
// its CPU and GPU slots free.
func checkSlotsFree(t *testing.T, a *platform.Allocation) {
	t.Helper()
	for _, n := range a.Nodes {
		if n.FreeCPU() != n.Spec.Slots() || n.FreeGPU() != n.Spec.GPUs {
			t.Fatalf("node %d still holds %d CPU and %d GPU slots",
				n.ID, n.Spec.Slots()-n.FreeCPU(), n.Spec.GPUs-n.FreeGPU())
		}
	}
}

// events adapts a pair of callbacks to launch.Events; either may be nil.
type events struct {
	start func(sim.Time)
	done  func(sim.Time, bool, string)
}

func (e events) OnStart(at sim.Time) {
	if e.start != nil {
		e.start(at)
	}
}

func (e events) OnComplete(at sim.Time, failed bool, reason string) {
	if e.done != nil {
		e.done(at, failed, reason)
	}
}

func req(dur sim.Duration, onStart func(sim.Time), onDone func(sim.Time, bool, string)) *launch.Request {
	return &launch.Request{
		UID:    "t",
		TD:     &spec.TaskDescription{CoresPerRank: 1, Ranks: 1, Duration: dur},
		Events: events{onStart, onDone},
	}
}

func TestBootstrapTakesAbout20s(t *testing.T) {
	eng, in, ctrl := newRig(4)
	var readyAt sim.Time = -1
	in.Ready(func() { readyAt = eng.Now() })
	eng.Run()
	boot := in.BootstrapOverhead().Seconds()
	if boot < 14 || boot > 30 {
		t.Fatalf("flux bootstrap = %.1fs, want ~20s (Fig 7)", boot)
	}
	if readyAt < 0 {
		t.Fatal("Ready callback never fired")
	}
	// The instance holds one srun ceiling slot while alive.
	if ctrl.Ceiling().InUse() != 1 {
		t.Fatalf("instance should hold 1 srun slot, holds %d", ctrl.Ceiling().InUse())
	}
	in.Drain("test")
	if ctrl.Ceiling().InUse() != 0 {
		t.Fatal("an idle drained instance kept its srun slot")
	}
}

func TestSubmitBeforeReadyQueues(t *testing.T) {
	eng, in, _ := newRig(2)
	var startAt sim.Time = -1
	in.Submit(req(sim.Second, func(at sim.Time) { startAt = at }, nil))
	eng.Run()
	if startAt < 0 {
		t.Fatal("task never started")
	}
	if startAt.Seconds() < 14 {
		t.Fatalf("task started at %.1fs, before bootstrap completed", startAt.Seconds())
	}
}

func TestDispatchRateMatchesModel(t *testing.T) {
	eng, in, _ := newRig(4)
	const n = 500
	var starts []sim.Time
	for i := 0; i < n; i++ {
		in.Submit(req(0, func(at sim.Time) { starts = append(starts, at) }, nil))
	}
	eng.Run()
	if len(starts) != n {
		t.Fatalf("started %d of %d", len(starts), n)
	}
	span := starts[len(starts)-1].Sub(starts[0]).Seconds()
	rate := float64(n-1) / span
	want := in.Rate()
	if rate < 0.5*want || rate > 1.5*want {
		t.Fatalf("measured rate %.1f t/s vs model %.1f t/s", rate, want)
	}
}

func TestBackfillLetsSmallTasksPassBlockedHead(t *testing.T) {
	eng, in, _ := newRig(2)
	// Fill the whole partition with a long task per slot.
	for i := 0; i < 112; i++ {
		in.Submit(req(500*sim.Second, nil, nil))
	}
	// Head-of-line: a 2-node task that cannot fit until everything
	// drains; behind it, a small task that backfill should start once
	// any slot frees.
	bigStarted := sim.Time(-1)
	smallStarted := sim.Time(-1)
	in.Submit(&launch.Request{
		UID:    "big",
		TD:     &spec.TaskDescription{Nodes: 2, Ranks: 16, CoresPerRank: 7, Duration: sim.Second},
		Events: events{start: func(at sim.Time) { bigStarted = at }},
	})
	in.Submit(req(sim.Second, func(at sim.Time) { smallStarted = at }, nil))
	eng.Run()
	if smallStarted < 0 || bigStarted < 0 {
		t.Fatal("tasks did not run")
	}
	if smallStarted >= bigStarted {
		t.Fatalf("backfill: small at %v should start before blocked 2-node head at %v", smallStarted, bigStarted)
	}
}

func TestCrashFailsQueuedAndRunning(t *testing.T) {
	eng, in, ctrl := newRig(1)
	var failures, successes int
	for i := 0; i < 80; i++ { // 56 run, 24 queue
		in.Submit(req(1000*sim.Second, nil, func(_ sim.Time, failed bool, _ string) {
			if failed {
				failures++
			} else {
				successes++
			}
		}))
	}
	exception := false
	in.OnException = func(string) { exception = true }
	eng.RunUntil(sim.Time(60 * sim.Second)) // bootstrap + launches done
	in.Crash("injected failure")
	eng.Run()
	if failures != 80 || successes != 0 {
		t.Fatalf("failures=%d successes=%d, want 80/0", failures, successes)
	}
	if !exception {
		t.Fatal("OnException not invoked")
	}
	checkSlotsFree(t, in.Partition())
	if ctrl.Ceiling().InUse() != 0 {
		t.Fatal("crash did not release the srun slot")
	}
	// Post-crash submissions fail immediately.
	late := 0
	in.Submit(req(0, nil, func(_ sim.Time, failed bool, _ string) {
		if failed {
			late++
		}
	}))
	eng.Run()
	if late != 1 {
		t.Fatal("submission to crashed instance should fail")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng, in, _ := newRig(1)
	running, peak := 0, 0
	for i := 0; i < 56; i++ {
		in.Submit(req(100*sim.Second,
			func(sim.Time) { running++; peak = max(peak, running) },
			func(sim.Time, bool, string) { running-- }))
	}
	eng.Run()
	if peak != 56 {
		t.Fatalf("peak running = %d, want 56", peak)
	}
	checkSlotsFree(t, in.Partition())
}

func TestEtaReducesRate(t *testing.T) {
	params := model.Default().Flux
	if params.Eta(1) != 1 {
		t.Fatal("single instance eta must be 1")
	}
	if params.Eta(16) >= params.Eta(4) {
		t.Fatal("eta must decrease with instance count")
	}
}

// TestRestartIgnoresStaleBoot: a crash mid-bootstrap followed by a quick
// restart must not let the first boot's ready event bring the restarted
// broker up early; Ready fires only once the new bootstrap completes.
func TestRestartIgnoresStaleBoot(t *testing.T) {
	eng, in, _ := newRig(4)
	eng.RunUntil(sim.Time(5 * sim.Second))
	in.Crash("injected")
	eng.RunUntil(sim.Time(6 * sim.Second))
	if !in.Restart() {
		t.Fatal("restart refused")
	}
	readyAt := sim.Time(-1)
	in.Ready(func() { readyAt = eng.Now() })
	eng.Run()
	if readyAt < 0 {
		t.Fatal("restarted instance never came up")
	}
	if up := readyAt.Sub(sim.Time(6 * sim.Second)).Seconds(); up < 14 {
		t.Fatalf("ready %.1fs after restart, faster than any bootstrap: a stale boot event fired", up)
	}
}

// TestRestartBeforeSrunGrantReleasesSlot: crashing before the bootstrap
// srun step is granted and restarting asks for a second step; the first,
// stale grant must give its ceiling slot back.
func TestRestartBeforeSrunGrantReleasesSlot(t *testing.T) {
	eng, in, ctrl := newRig(2)
	in.Crash("injected")
	if !in.Restart() {
		t.Fatal("restart refused")
	}
	eng.Run()
	if n := ctrl.Ceiling().InUse(); n != 1 {
		t.Fatalf("restarted instance holds %d srun slots, want 1", n)
	}
	in.Drain("test")
	if n := ctrl.Ceiling().InUse(); n != 0 {
		t.Fatalf("%d srun slots leaked after drain", n)
	}
}

// TestDrainFailsInFlightSubmit: a submit whose RPC is still in flight when
// the instance drains must fail on arrival instead of starting, and a
// restart clears the drain.
func TestDrainFailsInFlightSubmit(t *testing.T) {
	eng, in, _ := newRig(2)
	eng.RunUntil(sim.Time(60 * sim.Second)) // bootstrapped
	failed := false
	in.Submit(req(sim.Second, func(sim.Time) {
		t.Error("task submitted before Drain started after it")
	}, func(_ sim.Time, f bool, _ string) { failed = f }))
	in.Drain("pilot canceled")
	eng.Run()
	if !failed {
		t.Fatal("in-flight submit did not fail after Drain")
	}
	in.Crash("injected")
	in.Restart()
	started := false
	in.Submit(req(sim.Second, func(sim.Time) { started = true }, nil))
	eng.Run()
	if !started {
		t.Fatal("restart did not clear the drain")
	}
}

// TestStaleCycleAfterRestartWaitsForBoot: a broker cycle scheduled before a
// crash that fires after a restart, while the new boot is still coming up,
// must not place work submitted since the restart. That work starts only
// once the restarted instance is up.
func TestStaleCycleAfterRestartWaitsForBoot(t *testing.T) {
	fp := model.Default().Flux
	// A slow, steady broker (one token per 2 s): the first pass after boot
	// is token-limited and reschedules itself 1.5 s out, long after the
	// submit below has crossed its 2 ms RPC.
	fp.R0 = 0.5
	fp.RunSigma = 0
	eng, in, _ := newRigWith(1, fp)
	// Queued at boot, so the first pass runs and leaves a cycle pending.
	in.Submit(req(1000*sim.Second, nil, nil))
	readyAt, startAt := sim.Time(-1), sim.Time(-1)
	in.Ready(func() {
		eng.After(100*sim.Millisecond, func() {
			in.Crash("injected")
			if !in.Restart() {
				t.Error("restart refused")
			}
			in.Ready(func() { readyAt = eng.Now() })
			in.Submit(req(sim.Second, func(at sim.Time) { startAt = at }, nil))
		})
	})
	eng.Run()
	if readyAt < 0 || startAt < 0 {
		t.Fatalf("restarted instance ready at %v, task started at %v: want both", readyAt, startAt)
	}
	if startAt < readyAt {
		t.Fatalf("task started at %.3fs, before the restarted instance came up at %.3fs",
			startAt.Seconds(), readyAt.Seconds())
	}
}
