package experiments

// Data-staging characterization: a data size × source tier × placement
// policy sweep over the training-fan-out workload, a checkpoint-pressure
// scenario, and a producer→consumer handoff pipeline. Each cell reports
// the data subsystem's core metrics — bytes moved, shared-channel
// bandwidth occupancy, locality hit rate, staging wall time — next to the
// makespan they explain.

import (
	"fmt"

	"rpgo/internal/agent"
	"rpgo/internal/core"
	"rpgo/internal/metrics"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/workload"
)

// StagingSweepConfig parameterizes the staging sweep.
type StagingSweepConfig struct {
	// Nodes is the pilot size.
	Nodes int
	// Shards and TasksPerShard shape the training fan-out workload.
	Shards        int
	TasksPerShard int
	// ShardBytes sweeps the dataset size axis.
	ShardBytes []int64
	// Sources sweeps the source-tier axis (shared FS vs burst buffer).
	Sources []spec.StageTier
	// Policies sweeps placement (locality-blind pack vs data-aware).
	Policies []spec.PlacementPolicy
	// TaskSeconds is the compute duration per task.
	TaskSeconds float64
	// Seed and Reps control repetitions; rep r uses Seed+r for every
	// cell, so policies compare on identical stochastic draws.
	Seed uint64
	Reps int
}

// StagingCell is one aggregated sweep cell.
type StagingCell struct {
	Policy     spec.PlacementPolicy
	Source     spec.StageTier
	ShardBytes int64
	// Makespan is the mean workload makespan over reps.
	Makespan sim.Duration
	// BytesMoved is mean bytes actually transferred (hits move nothing).
	BytesMoved float64
	// HitRate is the mean locality hit rate.
	HitRate float64
	// SharedOccupancy is the mean occupancy fraction of the parallel-FS
	// channel over the execution window.
	SharedOccupancy float64
	// StageInPerTask is the mean per-task stage-in wall time.
	StageInPerTask sim.Duration
	Failed         int
}

// RunStagingSweep executes every (size × source × policy) cell.
func RunStagingSweep(cfg StagingSweepConfig) []StagingCell {
	if len(cfg.Sources) == 0 {
		cfg.Sources = []spec.StageTier{spec.TierSharedFS}
	}
	// Materialize the cell grid first, then run the independent cells on
	// the worker pool; index-addressed results keep the output order (and
	// per-rep seed derivation) identical to a serial sweep.
	var coords []StagingCell
	for _, size := range cfg.ShardBytes {
		for _, src := range cfg.Sources {
			for _, pol := range cfg.Policies {
				coords = append(coords, StagingCell{Policy: pol, Source: src, ShardBytes: size})
			}
		}
	}
	out := make([]StagingCell, len(coords))
	RunCells(len(coords), func(i int) {
		cell := coords[i]
		for r := 0; r < cfg.Reps; r++ {
			tasks := workload.TrainingFanout(cfg.Shards, cfg.TasksPerShard, cell.ShardBytes, sim.Seconds(cfg.TaskSeconds))
			for _, td := range tasks {
				td.InputData[0].Source = cell.Source
			}
			res := runStagingRep(cfg.Nodes, cell.Policy, cfg.Seed+uint64(r), tasks)
			cell.Makespan += res.Makespan / sim.Duration(cfg.Reps)
			cell.BytesMoved += float64(res.BytesMoved) / float64(cfg.Reps)
			cell.HitRate += res.HitRate / float64(cfg.Reps)
			cell.SharedOccupancy += res.SharedOccupancy / float64(cfg.Reps)
			cell.StageInPerTask += res.StageInPerTask / sim.Duration(cfg.Reps)
			cell.Failed += res.Failed
		}
		out[i] = cell
	})
	return out
}

// StagingRepResult is one repetition's measurement.
type StagingRepResult struct {
	Makespan        sim.Duration
	BytesMoved      int64
	HitRate         float64
	SharedOccupancy float64
	StageInPerTask  sim.Duration
	StageOutPerTask sim.Duration
	Failed          int
	// Summary is the full route-level breakdown.
	Summary metrics.DataSummary
	// SharedSeries is the parallel-FS occupancy timeline.
	SharedSeries metrics.Series
}

// runStagingRep runs one workload on a fresh session and derives the data
// metrics. The pilot uses a single Flux instance (placement behavior is
// identical across backends since PR 2 routes them all through the shared
// placer; Flux avoids srun's concurrency ceiling as a confound).
func runStagingRep(nodes int, pol spec.PlacementPolicy, seed uint64, tasks []*spec.TaskDescription) StagingRepResult {
	sess, pilot := newPilot("staging", core.Config{Seed: seed},
		spec.PilotDescription{Nodes: nodes, SMT: 1, Partitions: FluxPartitions(1), Placement: pol})
	tm := sess.TaskManager(pilot)
	tm.Submit(tasks)
	must("staging", tm.Wait())
	return measureStaging(sess, pilot, len(tasks))
}

func measureStaging(sess *core.Session, pilot *core.Pilot, nTasks int) StagingRepResult {
	traces := sess.Profiler.Tasks()
	sys := pilot.Agent.Data()
	start, end := execWindow(traces)
	var res StagingRepResult
	res.Makespan = metrics.Makespan(traces)
	res.BytesMoved = sys.BytesMoved()
	res.HitRate = sys.HitRate()
	res.SharedOccupancy = sys.SharedChannel().MeanOccupancy(start, end)
	res.SharedSeries = sys.SharedChannel().OccupancySeries(400)
	res.Summary = metrics.SummarizeData(traces, sess.Profiler.Transfers())
	if nTasks > 0 {
		res.StageInPerTask = res.Summary.StageInTotal / sim.Duration(nTasks)
		res.StageOutPerTask = res.Summary.StageOutTotal / sim.Duration(nTasks)
	}
	for _, tr := range traces {
		if tr.Failed {
			res.Failed++
		}
	}
	return res
}

// CheckpointConfig parameterizes the checkpoint-pressure scenario.
type CheckpointConfig struct {
	Nodes int
	// Writers tasks each write CkptBytes to Dest after TaskSeconds of
	// compute, once per wave: the burst repeats Waves times.
	Writers   int
	Waves     int
	CkptBytes int64
	Dest      spec.StageTier
	// TaskSeconds is the compute time before each write burst.
	TaskSeconds float64
	Seed        uint64
}

// RunCheckpointPressure measures synchronized checkpoint writes hammering
// a shared tier while the writers hold their compute slots.
func RunCheckpointPressure(cfg CheckpointConfig) StagingRepResult {
	sess, pilot := newPilot("checkpoint", core.Config{Seed: cfg.Seed},
		spec.PilotDescription{Nodes: cfg.Nodes, SMT: 1, Partitions: FluxPartitions(1)})
	tm := sess.TaskManager(pilot)
	total := 0
	for w := 0; w < cfg.Waves; w++ {
		batch := workload.CheckpointWriters(cfg.Writers, sim.Seconds(cfg.TaskSeconds), cfg.CkptBytes, cfg.Dest)
		// Distinct checkpoint names per wave.
		for i, td := range batch {
			td.OutputData[0].Dataset = fmt.Sprintf("ckpt.w%d.%06d", w, i)
		}
		workload.Tag(batch, "checkpoint", fmt.Sprintf("wave.%d", w))
		tm.Submit(batch)
		total += len(batch)
	}
	must("checkpoint", tm.Wait())
	return measureStaging(sess, pilot, total)
}

// HandoffConfig parameterizes the producer→consumer pipeline scenario.
type HandoffConfig struct {
	Nodes  int
	Stages int
	Width  int
	Bytes  int64
	Policy spec.PlacementPolicy
	// TaskSeconds is per-stage compute.
	TaskSeconds float64
	Seed        uint64
}

// RunHandoff drives a staged pipeline where each stage's tasks consume the
// datasets the previous stage produced: the scenario where data-aware
// placement turns cross-stage handoffs into node-local reads.
func RunHandoff(cfg HandoffConfig) StagingRepResult {
	res, _ := runHandoffSession(cfg)
	return res
}

// runHandoffSession is RunHandoff plus the session it ran in: the golden
// determinism tests fingerprint its task and transfer traces and pin its
// engine's event counts.
func runHandoffSession(cfg HandoffConfig) (StagingRepResult, *core.Session) {
	sess, pilot := newPilot("handoff", core.Config{Seed: cfg.Seed},
		spec.PilotDescription{Nodes: cfg.Nodes, SMT: 1, Partitions: FluxPartitions(1), Placement: cfg.Policy})
	tm := sess.TaskManager(pilot)
	batches := workload.Handoff(cfg.Stages, cfg.Width, cfg.Bytes, sim.Seconds(cfg.TaskSeconds))
	next := 0
	pending := 0
	var submit func()
	submit = func() {
		if next >= len(batches) {
			return
		}
		batch := batches[next]
		workload.Tag(batch, "handoff", fmt.Sprintf("stage.%d", next))
		next++
		pending = len(batch)
		tm.Submit(batch)
	}
	tm.OnComplete = func(*agent.Task) {
		pending--
		if pending == 0 {
			submit()
		}
	}
	submit()
	must("handoff", tm.Wait())
	total := cfg.Stages * cfg.Width
	return measureStaging(sess, pilot, total), sess
}
