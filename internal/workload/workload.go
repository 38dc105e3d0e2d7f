// Package workload generates the synthetic workloads of the paper's
// performance characterization (§4): null workloads (empty tasks that
// stress only the middleware), dummy workloads (fixed-duration sleeps that
// keep queues saturated), mixed executable/function workloads for the
// hybrid experiments, and the task templates of the IMPECCABLE campaign.
package workload

import (
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// Null returns n empty executable tasks: they execute no application code
// and return immediately, exposing the middleware's internal throughput
// limits.
func Null(n int) []*spec.TaskDescription {
	return Dummy(n, 0)
}

// Dummy returns n single-core executable sleep tasks of the given duration,
// emulating sustained load without computation. The descriptions share one
// arena allocation (the largest sweeps generate hundreds of thousands).
func Dummy(n int, d sim.Duration) []*spec.TaskDescription {
	return uniform(n, spec.Executable, d)
}

// DummyFunctions returns n single-core Python-function sleep tasks.
func DummyFunctions(n int, d sim.Duration) []*spec.TaskDescription {
	return uniform(n, spec.Function, d)
}

// uniform builds n identical single-core sleep tasks on one arena.
func uniform(n int, kind spec.TaskKind, d sim.Duration) []*spec.TaskDescription {
	return Copies(spec.TaskDescription{Kind: kind, CoresPerRank: 1, Ranks: 1, Duration: d}, n)
}

// Copies returns n copies of td that share one arena allocation. The
// copies share td's slice fields.
func Copies(td spec.TaskDescription, n int) []*spec.TaskDescription {
	arena := make([]spec.TaskDescription, n)
	out := make([]*spec.TaskDescription, n)
	for i := range arena {
		arena[i] = td
		out[i] = &arena[i]
	}
	return out
}

// Mixed returns a workload with nExec executable tasks and nFunc function
// tasks, interleaved so both backends fill concurrently (Experiment
// flux+dragon).
func Mixed(nExec, nFunc int, d sim.Duration) []*spec.TaskDescription {
	exec := Dummy(nExec, d)
	funcs := DummyFunctions(nFunc, d)
	out := make([]*spec.TaskDescription, 0, nExec+nFunc)
	for len(exec) > 0 || len(funcs) > 0 {
		if len(exec) > 0 {
			out = append(out, exec[0])
			exec = exec[1:]
		}
		if len(funcs) > 0 {
			out = append(out, funcs[0])
			funcs = funcs[1:]
		}
	}
	return out
}

// FullDensityCount returns the paper's task count for throughput
// experiments: nodes × cpn × 4 single-core tasks, i.e. four waves at full
// core occupancy (Table 1: "#tasks = n_nodes * cpn * 4").
func FullDensityCount(nodes, cpn int) int { return nodes * cpn * 4 }

// Tag stamps workflow/stage labels on a batch of tasks.
func Tag(tds []*spec.TaskDescription, workflow, stage string) []*spec.TaskDescription {
	for _, td := range tds {
		td.Workflow = workflow
		td.Stage = stage
	}
	return tds
}

// Template describes one IMPECCABLE sub-workflow's task shape (paper §2).
// Durations are the paper's controlled dummy value (sleep 180) — §4.2 uses
// identical sleeps so that launcher behaviour, not application cost,
// drives the comparison.
//
// A task is a copy of TD (see Copies). A copy shares TD's slice fields
// (InputData, OutputData, Requests), so a template that set one would hand
// every task the same backing array; the IMPECCABLE templates set none.
type Template struct {
	// Workflow names the IMPECCABLE sub-workflow.
	Workflow string
	// Stage is the pipeline stage the template instantiates.
	Stage string
	// TD is the description every task of the template copies.
	TD spec.TaskDescription
}

// Pipeline couples a template with its iteration structure: the campaign
// engine runs each pipeline concurrently, submitting BatchBase-scaled
// batches per iteration with a barrier between iterations.
type Pipeline struct {
	Template Template
	// BatchBase is the per-iteration task count at the 256-node
	// reference scale; the campaign engine computes
	// round(BatchBase * nodes / 256), minimum 1.
	BatchBase float64
	// ItersBase is the iteration count at 256 nodes; larger allocations
	// converge in proportionally fewer iterations.
	ItersBase int
	// Adaptive marks loosely coupled pipelines whose batch sizes the
	// campaign resizes at runtime to exploit idle resources (§4.2).
	Adaptive bool
}

// ImpeccableTaskDuration: all campaign tasks sleep 180 s (paper §4.2).
const ImpeccableTaskDuration = 180 * sim.Second

// ImpeccablePipelines returns the six concurrent workflow pipelines with
// the paper's resource footprints (1 to 1,344 cores and up to 192 GPUs per
// task here; the paper reports 1–7,168 cores and up to 1,024 GPUs across
// campaign variants). Batch/iteration bases are fitted to the paper's
// totals: ≈550 tasks at 256 nodes, ≈1,800 at 1,024 (§4.2).
func ImpeccablePipelines() []Pipeline {
	return []Pipeline{
		{
			// (1) High-throughput molecular docking: CPU-only node
			// batches (AutoDock), embarrassingly parallel. The
			// longest pipeline: it paces the campaign makespan.
			Template: Template{
				Workflow: "docking", Stage: "dock",
				TD: spec.TaskDescription{
					Kind: spec.Executable, Coupling: spec.LooselyCoupled,
					Nodes: 4, Ranks: 32, CoresPerRank: 7,
					Duration: ImpeccableTaskDuration,
				},
			},
			BatchBase: 2, ItersBase: 120, Adaptive: true,
		},
		{
			// (2) SST surrogate training: 4-node data-parallel GPU
			// training (up to 4 nodes in the paper).
			Template: Template{
				Workflow: "sst-training", Stage: "train",
				TD: spec.TaskDescription{
					Kind: spec.Executable, Coupling: spec.TightlyCoupled,
					Nodes: 4, Ranks: 32, CoresPerRank: 4, GPUsPerRank: 1,
					Duration: ImpeccableTaskDuration,
				},
			},
			BatchBase: 1, ItersBase: 16,
		},
		{
			// (3) Large-scale SST surrogate inference: GPU batch
			// functions in long-running Python workers.
			Template: Template{
				Workflow: "sst-inference", Stage: "infer",
				TD: spec.TaskDescription{
					Kind: spec.Function, Coupling: spec.LooselyCoupled,
					Ranks: 4, CoresPerRank: 2, GPUsPerRank: 1,
					Duration: ImpeccableTaskDuration,
				},
			},
			BatchBase: 1, ItersBase: 120, Adaptive: true,
		},
		{
			// (4) Physics-based scoring: Dock-Min-MMPBSA 8-node MPI
			// jobs (AMPL property prediction folded into the same
			// cadence).
			Template: Template{
				Workflow: "scoring", Stage: "score",
				TD: spec.TaskDescription{
					Kind: spec.Executable, Coupling: spec.TightlyCoupled,
					Nodes: 8, Ranks: 64, CoresPerRank: 7,
					Duration: ImpeccableTaskDuration,
				},
			},
			BatchBase: 2, ItersBase: 40,
		},
		{
			// (5) ESMACS ensemble simulations: wide CPU/GPU MPI jobs
			// (up to 625 nodes in production; 24 nodes here).
			Template: Template{
				Workflow: "esmacs", Stage: "ensemble",
				TD: spec.TaskDescription{
					Kind: spec.Executable, Coupling: spec.TightlyCoupled,
					Nodes: 24, Ranks: 192, CoresPerRank: 7, GPUsPerRank: 1,
					Duration: ImpeccableTaskDuration,
				},
			},
			BatchBase: 2, ItersBase: 30,
		},
		{
			// (6) REINVENT de-novo generation: single-node GPU
			// function, data-coupled with the inference loop.
			Template: Template{
				Workflow: "reinvent", Stage: "generate",
				TD: spec.TaskDescription{
					Kind: spec.Function, Coupling: spec.DataCoupled,
					CoresPerRank: 2, Ranks: 1, GPUsPerRank: 1,
					Duration: ImpeccableTaskDuration,
				},
			},
			BatchBase: 1, ItersBase: 60,
		},
	}
}
