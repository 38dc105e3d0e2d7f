package experiments

// The failure-sweep experiment: makespan (and failure accounting) as a
// function of node MTBF, comparing data-aware and pack placement under
// churn. Each cell runs a checkpointed training fan-out on a pilot whose
// fault injector draws node failures at the cell's MTBF: victims relocate
// through the shared placer, restore their last checkpoint, and resume —
// so the cost of a failure is eviction + backoff + restore + lost segment,
// all visible in the blame decomposition's failure/checkpoint buckets.

import (
	"rpgo/internal/analytics"
	"rpgo/internal/core"
	"rpgo/internal/metrics"
	"rpgo/internal/model"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/workload"
)

// The failure sweep's fixed settings: a failed node stays down
// sweepNodeDowntime seconds; the workload is sweepShards datasets of
// sweepShardBytes, each read node-local by sweepTasksPerShard single-core
// tasks; and a task relocates at most sweepMaxRetries times before a
// terminal FAILED.
const (
	sweepNodeDowntime  = 60
	sweepShards        = 8
	sweepTasksPerShard = 8
	sweepShardBytes    = 1 << 28
	sweepMaxRetries    = 5
)

// FailureSweepConfig parameterizes RunFailureSweep.
type FailureSweepConfig struct {
	Nodes int
	// MTBFs is the per-node mean-time-between-failures grid (seconds).
	MTBFs []float64
	// TaskSeconds is each task's compute time.
	TaskSeconds float64
	// CheckpointSeconds/CheckpointBytes enable checkpoint/restart on every
	// task (0 disables; failures then recompute from zero).
	CheckpointSeconds float64
	CheckpointBytes   int64
	// Horizon bounds the injected failure schedule (seconds); zero uses
	// the model default (24 h). A tight horizon keeps the Stats counters
	// focused on the workload window instead of the idle tail.
	Horizon float64
	Seed    uint64
}

// FailureCell is one (MTBF, placement policy) grid point.
type FailureCell struct {
	MTBF   float64
	Policy spec.PlacementPolicy

	Makespan sim.Duration
	Done     int
	Failed   int
	Retries  int

	NodeFailures int
	Victims      int

	// BlameFailure/BlameCheckpoint are the sweep's headline decomposition:
	// cumulative failure-handling and checkpoint-traffic time across tasks.
	BlameFailure    sim.Duration
	BlameCheckpoint sim.Duration
}

// FailureSweepResult is the full grid, MTBF-major then policy.
type FailureSweepResult struct {
	Cells []FailureCell
}

// RunFailureSweep runs the makespan-vs-MTBF grid for pack and data-aware
// placement. Cells run in parallel (each is its own seeded session) and
// results are slot-ordered, so the output is deterministic.
func RunFailureSweep(cfg FailureSweepConfig) FailureSweepResult {
	policies := []spec.PlacementPolicy{spec.PlacePack, spec.PlaceDataAware}
	res := FailureSweepResult{Cells: make([]FailureCell, len(cfg.MTBFs)*len(policies))}
	RunCells(len(res.Cells), func(i int) {
		mtbf := cfg.MTBFs[i/len(policies)]
		pol := policies[i%len(policies)]
		res.Cells[i] = runFailureCell(cfg, mtbf, pol)
	})
	return res
}

// runFailureCell runs one seeded session under the cell's failure rate.
// The seed is shared across the whole grid: every cell faces the same
// workload and, per MTBF, the same failure schedule — the policy axis
// isolates placement.
func runFailureCell(cfg FailureSweepConfig, mtbf float64, pol spec.PlacementPolicy) FailureCell {
	params := model.Default()
	params.Fault = model.FaultParams{
		NodeMTBF:     mtbf,
		NodeDowntime: sweepNodeDowntime,
		Horizon:      cfg.Horizon,
	}
	tasks := workload.TrainingFanout(sweepShards, sweepTasksPerShard, sweepShardBytes,
		sim.Seconds(cfg.TaskSeconds))
	for _, td := range tasks {
		td.MaxRetries = sweepMaxRetries
		if cfg.CheckpointSeconds > 0 && cfg.CheckpointBytes > 0 {
			td.CheckpointInterval = sim.Seconds(cfg.CheckpointSeconds)
			td.CheckpointBytes = cfg.CheckpointBytes
			td.CheckpointDest = spec.TierSharedFS
		}
	}
	sess, pilot := newPilot("failure sweep", core.Config{Seed: cfg.Seed, Params: &params},
		spec.PilotDescription{Nodes: cfg.Nodes, SMT: 1, Partitions: FluxPartitions(1), Placement: pol})
	tm := sess.TaskManager(pilot)
	tm.Submit(tasks)
	must("failure sweep", tm.Wait())

	cell := FailureCell{MTBF: mtbf, Policy: pol}
	traces := sess.Profiler.Tasks()
	cell.Makespan = metrics.Makespan(traces)
	for _, tr := range traces {
		if tr.Failed {
			cell.Failed++
		} else {
			cell.Done++
		}
		cell.Retries += tr.Retries
	}
	rep := analytics.BlameFromTraces(traces)
	cell.BlameFailure = rep.Blame[analytics.BlameFailure]
	cell.BlameCheckpoint = rep.Blame[analytics.BlameCheckpoint]
	st := pilot.Faults.Stats()
	cell.NodeFailures = st.NodeFailures
	cell.Victims = st.Victims
	return cell
}
