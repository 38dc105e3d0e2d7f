package prrte

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

func newRig(nodes int) (*sim.Engine, *DVM, *slurm.Controller) {
	eng := sim.NewEngine()
	src := rng.New(17)
	ctrl := slurm.NewController(eng, model.Default().Srun, src)
	cluster := platform.NewCluster(platform.Frontier(1), nodes)
	d := NewDVM("prrte.t", DefaultParams(), eng, ctrl, cluster.Allocate(nodes), src)
	return eng, d, ctrl
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

func TestDVMBootstrap(t *testing.T) {
	eng, d, ctrl := newRig(4)
	eng.Run()
	boot := d.BootstrapOverhead().Seconds()
	if boot < 7 || boot > 16 {
		t.Fatalf("DVM bootstrap = %.1fs, want ~10.5s", boot)
	}
	if ctrl.Ceiling().InUse() != 1 {
		t.Fatal("DVM should hold one srun slot")
	}
	d.Drain("test")
	if ctrl.Ceiling().InUse() != 0 {
		t.Fatal("an idle drained DVM kept its srun slot")
	}
}

func TestFlatLaunchRate(t *testing.T) {
	// PRRTE's defining property vs Flux: launch rate does not grow with
	// partition size.
	rate := func(nodes int) float64 {
		eng, d, _ := newRig(nodes)
		const n = 200
		var starts []sim.Time
		for i := 0; i < n; i++ {
			d.Submit(req(0, func(at sim.Time) { starts = append(starts, at) }, nil))
		}
		eng.Run()
		span := starts[len(starts)-1].Sub(starts[0]).Seconds()
		return float64(n-1) / span
	}
	r2, r64 := rate(2), rate(64)
	if r2 < 7 || r2 > 28 {
		t.Fatalf("prun rate at 2 nodes = %.1f, want ~14 t/s", r2)
	}
	ratio := r64 / r2
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("rate must be ~flat in node count: %.1f vs %.1f", r2, r64)
	}
}

func TestLifecycleAndAccounting(t *testing.T) {
	eng, d, _ := newRig(2)
	done := 0
	for i := 0; i < 30; i++ {
		d.Submit(req(20*sim.Second, nil, func(_ sim.Time, failed bool, _ string) {
			if failed {
				t.Error("unexpected failure")
			}
			done++
		}))
	}
	eng.Run()
	if done != 30 {
		t.Fatalf("done = %d", done)
	}
	checkSlotsFree(t, d.Partition())
	st := d.Stats()
	if st.Started != 30 || st.Completed != 30 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCrashFailover(t *testing.T) {
	eng, d, ctrl := newRig(1)
	failures := 0
	for i := 0; i < 70; i++ { // 56 run, 14 queue
		d.Submit(req(1000*sim.Second, nil, func(_ sim.Time, failed bool, _ string) {
			if failed {
				failures++
			}
		}))
	}
	exception := false
	d.OnException = func(string) { exception = true }
	eng.RunUntil(sim.Time(60 * sim.Second))
	d.Crash("injected")
	eng.Run()
	if failures != 70 {
		t.Fatalf("failures = %d, want 70", failures)
	}
	if !exception || ctrl.Ceiling().InUse() != 0 {
		t.Fatalf("crash cleanup: exception=%v srun=%d", exception, ctrl.Ceiling().InUse())
	}
	checkSlotsFree(t, d.Partition())
}

func TestOversizedTaskFails(t *testing.T) {
	eng, d, _ := newRig(1)
	failed := false
	d.Submit(&launch.Request{
		UID: "big",
		TD:  &spec.TaskDescription{Nodes: 4, Ranks: 4},
		Events: events{
			func(sim.Time) { t.Error("must not start") },
			func(_ sim.Time, f bool, _ string) { failed = f },
		},
	})
	eng.Run()
	if !failed {
		t.Fatal("oversized task should fail")
	}
}

func TestAgentIntegration(t *testing.T) {
	// PRRTE as a pilot backend through the public path. (Import cycle
	// avoided: core tests cover the full path; here we check the DVM is
	// the shared launcher the agent drives.)
	_, d, _ := newRig(1)
	var l *launch.Launcher = d.Launcher
	if l.Backend() != spec.BackendPRRTE || l.Name() != "prrte.t" {
		t.Fatalf("launcher: %s %s", l.Backend(), l.Name())
	}
}
