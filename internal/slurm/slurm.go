// Package slurm models the system-level resource and job management layer:
// a Slurm controller with Frontier's concurrency ceiling on srun
// invocations, a step-registration service whose rate degrades with
// allocation size, and an srun-based task launcher.
//
// Two properties drive every srun result in the paper and are first-class
// mechanisms here:
//
//  1. a system-wide cap (112 on Frontier) on concurrently active srun
//     processes — each srun wraps its task for the task's entire lifetime,
//     so task concurrency is capped regardless of free cores (§4.1.1,
//     Fig 4);
//  2. step registration through the central controller, a serial bottleneck
//     whose service rate decays with the number of nodes in the allocation
//     (§6: 152 tasks/s at 1 node → 61 tasks/s at 4 nodes).
package slurm

import (
	"rpgo/internal/launch"
	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// Controller is the machine-wide Slurm controller. All sruns in a session —
// task launches and backend-instance bootstraps alike — share its ceiling.
type Controller struct {
	params  model.SrunParams
	ceiling *sim.Semaphore
	// registrar serializes step creation through the central daemon.
	registrar *sim.Server[*step]
	rand      *rng.Stream
	// grantFn submits a step whose ceiling slot was granted to the
	// registrar; releaseFn frees one ceiling slot. Both are bound once,
	// so a step costs no callback closures.
	grantFn   func(any)
	releaseFn func()
}

// step is one srun job step on its way from the ceiling queue through the
// registrar to exec. It is the only object a task step allocates: it rides
// the ceiling and the registrar as the argument of the controller's
// prebound callbacks, and registered, bound once by its caller, receives it
// when the step may exec.
type step struct {
	allocNodes int
	stepNodes  int
	// asked is when the step asked for its ceiling slot.
	asked      sim.Time
	registered func(*step)
	// req is the task a launcher's step starts.
	req *launch.Request
}

// NewController returns a controller with the given parameters.
func NewController(eng *sim.Engine, params model.SrunParams, src *rng.Source) *Controller {
	c := &Controller{
		params:  params,
		ceiling: sim.NewSemaphore(eng, params.Ceiling),
		rand:    src.Stream("slurm.controller"),
	}
	c.registrar = sim.NewServer(eng, 1, c.serviceTime, func(st *step) { st.registered(st) })
	c.grantFn = func(arg any) { c.registrar.Submit(arg.(*step)) }
	c.releaseFn = func() { c.ceiling.Release(1) }
	return c
}

func (c *Controller) serviceTime(st *step) sim.Duration {
	mu := c.params.Mu(st.allocNodes)
	// Exponential service around the mean registration time models the
	// controller's RPC and bookkeeping variability; multi-node MPI steps
	// pay a co-scheduling surcharge.
	mean := c.params.StepCost(st.stepNodes) / mu
	return sim.Seconds(c.rand.Exp(mean))
}

// Ceiling exposes the srun concurrency semaphore (tests assert HighWater).
func (c *Controller) Ceiling() *sim.Semaphore { return c.ceiling }

// start queues a step for a ceiling slot. The grant submits it to the
// registrar in one event, and registration hands it to st.registered.
func (c *Controller) start(st *step) {
	c.ceiling.Acquire(1, c.grantFn, st)
}

// StartStep acquires an srun slot and registers a job step. allocNodes is
// the size of the surrounding allocation (controller contention scales with
// it); stepNodes is the size of the step being launched (multi-node steps
// pay a co-scheduling surcharge). started fires when the srun process may
// exec, receiving a release function the caller must invoke exactly once
// when the srun exits. It serves instance bootstraps, a few per run; task
// steps take the closure-free path in SrunLauncher.
func (c *Controller) StartStep(allocNodes, stepNodes int, started func(release func())) {
	c.start(&step{allocNodes: allocNodes, stepNodes: stepNodes, registered: func(*step) {
		released := false
		started(func() {
			if released {
				panic("slurm: step released twice")
			}
			released = true
			c.releaseFn()
		})
	}})
}

// SrunLauncher launches tasks through srun within one resource partition:
// the shared launcher lifecycle with srun's cost model. Placement is done
// by RP's scheduler logic (the Placer); srun only starts the placed
// processes, gated by the controller ceiling each holds for its whole
// lifetime. srun is Slurm itself: there is no instance to bootstrap, so it
// is ready at once and cannot crash.
type SrunLauncher struct {
	*launch.Launcher
	eng  *sim.Engine
	ctrl *Controller
	rand *rng.Stream
	// rateMult is the per-run variability multiplier on prolog latency.
	rateMult float64
	// registeredFn is the prebound registered, shared by every step.
	registeredFn func(*step)
}

// NewSrunLauncher returns a launcher over the partition.
func NewSrunLauncher(name string, eng *sim.Engine, ctrl *Controller, part *platform.Allocation,
	src *rng.Source) *SrunLauncher {
	s := &SrunLauncher{eng: eng, ctrl: ctrl, rand: src.Stream("srun." + name)}
	s.rateMult = s.rand.LogNormal(1, ctrl.params.RunSigma)
	s.registeredFn = s.registered
	s.Launcher = launch.New(launch.Config{
		Name: name, Backend: spec.BackendSrun,
		Engine: eng, Part: part,
		Launch: s.launch,
	})
	return s
}

// launch runs one placed task's srun: a ceiling slot and step registration
// through the controller, then the prolog, then the process.
func (s *SrunLauncher) launch(r *launch.Request) {
	stepNodes := r.TD.Nodes
	if stepNodes < 1 {
		stepNodes = 1
	}
	s.ctrl.start(&step{
		allocNodes: s.Nodes(), stepNodes: stepNodes,
		asked: s.eng.Now(), registered: s.registeredFn, req: r,
	})
}

// registered runs when a task's step may exec.
func (s *SrunLauncher) registered(st *step) {
	r := st.req
	// The wait for a ceiling slot (and the controller's serial step
	// registrar) is queueing behind a system-wide throttle, not
	// placement: Fig 4's utilization cap shows up here.
	if tr := r.Trace; tr != nil {
		if now := s.eng.Now(); now > st.asked {
			tr.AddEdge(profiler.CausalEdge{
				Kind: profiler.EdgeQueued, From: st.asked, To: now, Ref: "srun.ceiling",
			})
		}
	}
	// The srun exits with the task and its ceiling slot frees; the
	// launcher calls Release once, when the request leaves.
	r.Release = s.ctrl.releaseFn
	prolog := s.ctrl.params.PrologMedian / s.rateMult
	s.ExecAfter(sim.Seconds(s.rand.LogNormal(prolog, s.ctrl.params.PrologSigma)), r)
}
