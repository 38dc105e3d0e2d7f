// Package dragon models the Dragon distributed runtime: a lightweight,
// high-throughput dispatcher for Python functions and (less efficiently)
// executable tasks.
//
// Mechanisms mirrored from the paper (§3.2.2, §4.1.4):
//
//   - a single runtime spans its whole partition; there is no internal
//     partitioning or explicit co-scheduling — resource management is
//     implicit (worker processes occupy cores);
//   - dispatch is centralized: one dispatcher pushes work to node-local
//     workers over shared-memory queues, so throughput is largely
//     independent of node count at small scale and *degrades* as the
//     span grows (R(n) = R0/(1+n/N0));
//   - function tasks take the native in-memory fast path; executables pay
//     a fork/exec penalty (lower R0);
//   - completion events flow back asynchronously through a shmem queue to
//     a watcher;
//   - bootstrap is ≈9 s (Fig 7) and guarded by a startup timeout so a hung
//     runtime cannot stall RP.
package dragon

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

// Runtime is one Dragon runtime over a resource partition: the shared
// launcher lifecycle driven by the centralized dispatcher's cost model.
type Runtime struct {
	*launch.Launcher
	params model.DragonParams
	rand   *rng.Stream
	// dispatcher serializes task launches (the centralized design the
	// paper measures).
	dispatcher *sim.Server[*launch.Request]
	rateMult   float64
	eta        float64
	// hang makes the next boot attempt never come up.
	hang bool
}

// Config carries runtime construction options.
type Config struct {
	Name   string
	Params model.DragonParams
	// Eta is the multi-runtime coordination efficiency applied by the RP
	// executor when it drives several Dragon partitions (1 for a single
	// runtime).
	Eta float64
	// FailBootstrap makes initialization hang past the startup timeout
	// (failure-injection tests).
	FailBootstrap bool
}

// NewRuntime creates and starts a runtime over the partition.
func NewRuntime(cfg Config, eng *sim.Engine, ctrl *slurm.Controller, part *platform.Allocation,
	src *rng.Source) *Runtime {
	if cfg.Eta <= 0 {
		cfg.Eta = 1
	}
	d := &Runtime{
		params: cfg.Params,
		eta:    cfg.Eta,
		rand:   src.Stream("dragon." + cfg.Name),
		hang:   cfg.FailBootstrap,
	}
	d.rateMult = d.rand.LogNormal(1, cfg.Params.RunSigma)
	d.dispatcher = sim.NewServer(eng, 1, d.serviceTime, d.dispatched)
	shmem := sim.Seconds(cfg.Params.ShmemLatency)
	d.Launcher = launch.New(launch.Config{
		Name: cfg.Name, Backend: spec.BackendDragon,
		Engine: eng, Ctrl: ctrl, Part: part,
		// Tasks are serialized to the runtime over a shmem pipe, and
		// completion events hop back over a shmem queue to a watcher.
		SubmitLatency:   shmem,
		CompleteLatency: shmem,
		StartupTimeout:  sim.Seconds(cfg.Params.StartupTimeout),
		Bootstrap:       d.bootstrapCost,
		// Implicit resource management: first free worker slots win.
		Launch: d.dispatcher.Submit,
	})
	d.Boot()
	return d
}

// bootstrapCost draws the runtime bring-up: one srun starts the whole
// runtime, and worker bring-up cost is part of the bootstrap latency.
func (d *Runtime) bootstrapCost() sim.Duration {
	boot := d.params.BootstrapMedian +
		d.params.BootstrapPerLogNode*math.Log2(float64(d.Nodes())+1)
	dur := sim.Seconds(d.rand.LogNormal(boot, d.params.BootstrapSigma))
	if d.hang {
		d.hang = false
		return -1
	}
	return dur
}

// Rate returns the effective dispatch rate for a task kind.
func (d *Runtime) Rate(kind spec.TaskKind) float64 {
	var r float64
	if kind == spec.Function {
		r = d.params.FuncRate(d.Nodes())
	} else {
		r = d.params.ExecRate(d.Nodes())
	}
	return r * d.rateMult * d.eta
}

func (d *Runtime) serviceTime(r *launch.Request) sim.Duration {
	rate := d.Rate(r.TD.Kind)
	return sim.Seconds(d.rand.Exp(1 / rate))
}

// dispatched runs when the dispatcher finishes serializing a launch: the
// worker spawns the process (exec) or invokes the function in-memory.
func (d *Runtime) dispatched(r *launch.Request) {
	if d.Dropped(r) {
		return
	}
	var spawn float64
	if r.TD.Kind == spec.Executable {
		spawn = d.rand.LogNormal(0.020, d.params.SpawnSigma) // fork/exec
	} else {
		spawn = d.rand.LogNormal(0.002, d.params.SpawnSigma) // in-memory call
	}
	d.ExecAfter(sim.Seconds(spawn), r)
}
