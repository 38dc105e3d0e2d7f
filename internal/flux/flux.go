// Package flux models a Flux instance: a hierarchical, policy-driven
// resource manager running inside a pilot allocation.
//
// Mechanisms mirrored from the paper (§3.2.1):
//
//   - instances are srun-launched and bootstrap in ≈20 s (Fig 7), holding
//     one slot of the system srun ceiling for their lifetime;
//   - task submission is an asynchronous RPC into the broker; the broker's
//     scheduler loop places queued jobs against the instance's resource
//     ledger each cycle, with FCFS order and bounded backfill;
//   - placed jobs start through parallel job shells, so dispatch rate grows
//     with partition size (R(n) = R0·n^α, fitted to §4.1.2);
//   - job lifecycle events (start, finish, exception) flow back to the
//     subscriber asynchronously.
package flux

import (
	"math"

	"rpgo/internal/launch"
	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/slurm"
	"rpgo/internal/spec"
)

// Instance is one Flux broker + scheduler over a resource partition: the
// shared launcher lifecycle driven by the broker's cost model.
type Instance struct {
	*launch.Launcher
	eng    *sim.Engine
	params model.FluxParams
	rand   *rng.Stream

	// rate is the effective dispatch rate, R0·n^α·η·m, fixed at
	// construction: the partition size n, the multi-instance coordination
	// efficiency η and the per-run lognormal rate multiplier m (repetition
	// variability, §4.1.2) never change.
	rate float64

	cycling    bool
	tokens     float64
	lastRefill sim.Time
	cycleFn    func()
}

// Config carries instance construction options.
type Config struct {
	Name   string
	Params model.FluxParams
	// Eta is the coordination efficiency (1 for a single instance).
	Eta float64
}

// NewInstance creates and boots an instance over the partition.
func NewInstance(cfg Config, eng *sim.Engine, ctrl *slurm.Controller, part *platform.Allocation,
	src *rng.Source) *Instance {
	if cfg.Eta <= 0 {
		cfg.Eta = 1
	}
	in := &Instance{
		eng:    eng,
		params: cfg.Params,
		rand:   src.Stream("flux." + cfg.Name),
	}
	rateMult := in.rand.LogNormal(1, cfg.Params.RunSigma)
	in.rate = cfg.Params.Rate(part.Size()) * cfg.Eta * rateMult
	in.cycleFn = in.cycle
	in.Launcher = launch.New(launch.Config{
		Name: cfg.Name, Backend: spec.BackendFlux,
		Engine: eng, Ctrl: ctrl, Part: part,
		SubmitLatency: sim.Seconds(cfg.Params.RPCLatency),
		Bootstrap:     in.bootstrapCost,
		Up:            in.up,
		Schedule:      in.kick,
	})
	in.Boot()
	return in
}

// bootstrapCost draws one broker bootstrap: `srun -N n flux start`, whose
// broker-tree startup is part of the latency.
func (in *Instance) bootstrapCost() sim.Duration {
	boot := in.params.BootstrapMedian +
		in.params.BootstrapPerLogNode*math.Log2(float64(in.Nodes())+1)
	return sim.Seconds(in.rand.LogNormal(boot, in.params.BootstrapSigma))
}

// up starts the token bucket full: a freshly bootstrapped broker bursts.
func (in *Instance) up() {
	in.lastRefill = in.eng.Now()
	in.tokens = in.Rate() * in.params.Cycle
}

// Rate returns the instance's effective dispatch rate (jobs/s).
func (in *Instance) Rate() float64 { return in.rate }

// kick schedules a scheduler pass. The broker is event-driven: submits,
// completions, and bootstrap all trigger an immediate pass, while the token
// bucket bounds the sustained dispatch rate at R(n).
func (in *Instance) kick() {
	if in.cycling || in.Queued() == 0 {
		return
	}
	in.cycling = true
	in.eng.Immediately(in.cycleFn)
}

// refillTokens accrues dispatch tokens at the instance rate, capped at one
// scheduler-cycle's worth of burst.
func (in *Instance) refillTokens() {
	now := in.eng.Now()
	rate := in.Rate()
	in.tokens += rate * now.Sub(in.lastRefill).Seconds()
	cap := rate * in.params.Cycle
	if cap < 1 {
		cap = 1
	}
	if in.tokens > cap {
		in.tokens = cap
	}
	in.lastRefill = now
}

// cycle is one pass of the broker's scheduler: place queued jobs while
// dispatch tokens and resources last, then reschedule at the next token.
// A pass scheduled before a crash may fire after a restart, while the new
// boot is still coming up; it does nothing, and the boot's own Kick starts
// the next pass.
func (in *Instance) cycle() {
	in.cycling = false
	if !in.Live() || in.Queued() == 0 {
		return
	}
	in.refillTokens()
	blocked := false
	for in.tokens >= 1 && in.Queued() > 0 {
		// Selection: data-affinity first, then FCFS, then a bounded
		// backfill window past a blocked head (FCFS + backfill policy).
		r := in.Next(in.params.BackfillDepth)
		if r == nil {
			blocked = true
			break
		}
		in.tokens--
		// The job shell spawn latency separates allocation from exec start.
		in.ExecAfter(sim.Seconds(in.rand.LogNormal(in.params.ShellMedian, in.params.ShellSigma)), r)
	}
	if in.Queued() == 0 || blocked {
		// Either drained, or resource-blocked: completions re-kick.
		return
	}
	// Token-limited: resume when the next token accrues.
	wait := sim.Seconds((1 - in.tokens) / in.Rate())
	if wait < sim.Millisecond {
		wait = sim.Millisecond
	}
	in.cycling = true
	in.eng.After(wait, in.cycleFn)
}
