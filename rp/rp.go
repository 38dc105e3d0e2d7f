// Package rp is the public API of rpgo: a Go reproduction of
// RADICAL-Pilot integrated with Flux and Dragon task runtime systems, as
// characterized in "Integrating and Characterizing HPC Task Runtime Systems
// for hybrid AI-HPC workloads" (SC Workshops '25).
//
// The API mirrors RADICAL-Pilot's Python API: create a Session, submit a
// PilotDescription to get a Pilot (a resource placeholder with an Agent on
// it), then submit TaskDescriptions through a TaskManager. The pilot's
// agent routes every task to the backend that matches its execution model:
// executables to Flux (or srun), Python functions to Dragon.
//
// Everything executes on a deterministic discrete-event simulation of a
// Frontier-like platform; see DESIGN.md for the substitution rationale and
// the calibration of the backend models.
//
// A minimal program:
//
//	sess := rp.NewSession(rp.Config{Seed: 1})
//	pilot, err := sess.SubmitPilot(rp.PilotDescription{
//		Nodes: 4,
//		Partitions: []rp.PartitionConfig{
//			{Backend: rp.BackendFlux, Instances: 2},
//		},
//	})
//	// handle err
//	tm := sess.TaskManager(pilot)
//	tm.Submit([]*rp.TaskDescription{{
//		Kind: rp.Executable, CoresPerRank: 1, Ranks: 1,
//		Duration: 180 * rp.Second,
//	}})
//	err = tm.Wait()
package rp

import (
	"io"

	"rpgo/internal/agent"
	"rpgo/internal/analytics"
	"rpgo/internal/core"
	"rpgo/internal/metrics"
	"rpgo/internal/model"
	"rpgo/internal/obs"
	"rpgo/internal/profiler"
	"rpgo/internal/service"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// Session owns the virtual machine, the Slurm controller, and all pilots.
type Session = core.Session

// Config configures a Session.
type Config = core.Config

// Pilot is an active resource allocation with an RP agent on it.
type Pilot = core.Pilot

// TaskManager submits tasks to a pilot and tracks completion.
type TaskManager = core.TaskManager

// Task is the runtime record of one submitted task.
type Task = agent.Task

// TaskDescription describes one unit of work.
type TaskDescription = spec.TaskDescription

// PilotDescription describes a resource request and its backend layout.
type PilotDescription = spec.PilotDescription

// PartitionConfig lays out one backend group inside a pilot.
type PartitionConfig = spec.PartitionConfig

// ServiceDescription describes a persistent inference service: replicas,
// latency model, dynamic batching and autoscaling bounds.
type ServiceDescription = spec.ServiceDescription

// ServiceCall couples a task to a deployed service: it issues requests at
// a phase of the task's compute body and blocks on the responses.
type ServiceCall = spec.ServiceCall

// ServiceHandle is the client-side handle of a deployed service.
type ServiceHandle = core.ServiceHandle

// ServiceStats summarizes an endpoint: latency percentiles, batch
// occupancy, utilization and the autoscaling event log.
type ServiceStats = service.Stats

// ScaleEvent is one autoscaler action on a service's replica set.
type ScaleEvent = service.ScaleEvent

// RequestTrace is the per-request record (issue → dispatch → response).
type RequestTrace = profiler.RequestTrace

// StagingDirective names a dataset a task consumes or produces and the
// storage tiers involved; sized directives route through the data-staging
// subsystem's contention-modelled channels.
type StagingDirective = spec.StagingDirective

// StageTier names a level of the storage hierarchy.
type StageTier = spec.StageTier

// Storage tiers.
const (
	TierSharedFS    = spec.TierSharedFS
	TierNodeLocal   = spec.TierNodeLocal
	TierBurstBuffer = spec.TierBurstBuffer
)

// PlacementPolicy selects how backends pick nodes for tasks.
type PlacementPolicy = spec.PlacementPolicy

// Placement policies.
const (
	// PlacePack is the legacy locality-blind packing policy.
	PlacePack = spec.PlacePack
	// PlaceDataAware prefers nodes already holding a task's inputs.
	PlaceDataAware = spec.PlaceDataAware
)

// TransferTrace is the per-transfer record of the data subsystem.
type TransferTrace = profiler.TransferTrace

// DataSummary aggregates bytes moved per route, locality hit rate, and
// staging wall time for one run.
type DataSummary = metrics.DataSummary

// SummarizeData derives the data summary from a session's task and
// transfer traces.
func SummarizeData(tasks []*profiler.TaskTrace, transfers []TransferTrace) DataSummary {
	return metrics.SummarizeData(tasks, transfers)
}

// Utilization derives the share of totalCPU slots the tasks kept busy over
// [start, end] from their traces.
func Utilization(tasks []*profiler.TaskTrace, totalCPU int, start, end Time) float64 {
	return metrics.Utilization(tasks, totalCPU, start, end)
}

// LatencySummary reports p50/p95/p99 latency percentiles in seconds.
type LatencySummary = metrics.LatencySummary

// Series is a named timeline (queue depth, replica count, concurrency).
type Series = metrics.Series

// ASCIIPlot renders a timeline as a fixed-width text chart.
func ASCIIPlot(s Series, width, height int, title string) string {
	return metrics.ASCIIPlot(s, width, height, title)
}

// SummarizeLatencies condenses a latency sample into p50/p95/p99.
func SummarizeLatencies(ds []Duration) LatencySummary {
	return metrics.SummarizeLatencies(ds)
}

// Params bundles the calibrated model constants (see internal/model).
type Params = model.Params

// FaultParams configures the seeded failure model (Params.Fault): node
// MTBF/downtime, backend crash/restart churn, and straggler nodes. Leaving
// it zero-valued keeps the simulator failure-free and bit-identical to a
// build without the fault machinery.
type FaultParams = model.FaultParams

// Task modalities.
const (
	Executable = spec.Executable
	Function   = spec.Function
)

// Backend selectors.
const (
	BackendAuto   = spec.BackendAuto
	BackendSrun   = spec.BackendSrun
	BackendFlux   = spec.BackendFlux
	BackendDragon = spec.BackendDragon
)

// Coupling patterns.
const (
	LooselyCoupled = spec.LooselyCoupled
	TightlyCoupled = spec.TightlyCoupled
	DataCoupled    = spec.DataCoupled
)

// Time and Duration re-export the virtual clock types.
type Time = sim.Time

// Duration is a span of virtual time.
type Duration = sim.Duration

// Common durations.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// Seconds converts float seconds to a Duration.
func Seconds(s float64) Duration { return sim.Seconds(s) }

// NewSession creates a session; see core.NewSession.
func NewSession(cfg Config) *Session { return core.NewSession(cfg) }

// DefaultParams returns the calibrated model parameter set.
func DefaultParams() Params { return model.Default() }

// --- observability (internal/obs) ---

// TraceSink receives completed traces as they finalize; set one on
// Config.Sink. Sinks whose RetainTraces reports false switch the profiler
// to streaming mode: traces flow through the sink and are dropped instead
// of retained, bounding memory at campaign scale.
type TraceSink = profiler.TraceSink

// TaskTrace is the per-task lifecycle record sinks receive.
type TaskTrace = profiler.TaskTrace

// MemorySink retains traces in the profiler (the default behaviour).
type MemorySink = obs.Memory

// FoldSink folds every trace into O(1)-memory aggregates: throughput,
// utilization, latency percentiles, staging and service statistics.
type FoldSink = obs.Fold

// JSONLSink spills every trace as one JSON object per line. It buffers its
// lines and no session flushes it: call Flush once the run is over, or the
// spill loses its tail.
type JSONLSink = obs.JSONL

// NewFoldSink returns an empty fold.
func NewFoldSink() *FoldSink { return obs.NewFold() }

// NewJSONLSink returns a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONL(w) }

// TeeSink fans each trace out to several sinks.
func TeeSink(sinks ...TraceSink) TraceSink { return obs.NewTee(sinks...) }

// MetricsSnapshot is a JSON-ready export of the counters and gauges the
// engine, schedulers, data channels and services keep as the simulation
// runs; obtain one from Session.MetricsSnapshot().
type MetricsSnapshot = obs.Snapshot

// --- live introspection (internal/obs) ---

// Monitor is the live-monitoring front door: attach it to a running
// campaign (experiments configs take one; Monitor.Attach hooks it to a
// sharded engine's heartbeat) and it publishes metrics snapshots at a
// wall-clock cadence and serves them over HTTP — /metrics in Prometheus
// text exposition, /healthz, and /progress with campaign completion.
type Monitor = obs.Monitor

// NewMonitor returns a monitor publishing at most once per cadence.
var NewMonitor = obs.NewMonitor

// SelfProfiler accounts the simulator's own wall-clock time by phase
// (event dispatch, sharded exchange, sink folds, placement).
// Set one on Config.Profile; totals merge into MetricsSnapshot as
// selfprof.* counters.
type SelfProfiler = obs.SelfProfiler

// NewSelfProfiler returns an empty self-profiler.
func NewSelfProfiler() *SelfProfiler { return obs.NewSelfProfiler() }

// Self-profiler phases (SelfProfiler.TotalNs/Samples/MaxNs selectors).
const (
	PhaseDispatch  = sim.PhaseDispatch
	PhaseExchange  = sim.PhaseExchange
	PhaseSinkFold  = sim.PhaseSinkFold
	PhasePlacement = sim.PhasePlacement
)

// PhaseName returns the short stable name of a self-profiler phase.
func PhaseName(phase int) string { return sim.PhaseName(phase) }

// WriteOpenMetrics renders a metrics snapshot in Prometheus/OpenMetrics
// text exposition (byte-deterministic; what the monitor's /metrics serves).
func WriteOpenMetrics(w io.Writer, s *MetricsSnapshot) error {
	return obs.WriteOpenMetrics(w, s)
}

// ShardRecord is one shard's cumulative window telemetry from a sharded
// run (events, busy/skipped windows, busy wall time, cross-partition
// traffic).
type ShardRecord = obs.ShardRecord

// RenderShardTable formats shard records as the per-shard table `rptrace
// shards` prints.
func RenderShardTable(recs []ShardRecord) string { return obs.RenderShardTable(recs) }

// --- causal tracing & blame (internal/analytics, internal/obs) ---

// CausalEdge is one resolved wait on a trace record: what the task,
// transfer or request was blocked on, from when to when, and a reference
// to the blocking entity (transfer UID, request UID, service or channel
// name, retry reason).
type CausalEdge = profiler.CausalEdge

// EdgeKind classifies a causal wait.
type EdgeKind = profiler.EdgeKind

// Causal edge kinds.
const (
	EdgeQueued     = profiler.EdgeQueued
	EdgeStarved    = profiler.EdgeStarved
	EdgeStage      = profiler.EdgeStage
	EdgeTransfer   = profiler.EdgeTransfer
	EdgeService    = profiler.EdgeService
	EdgeRetry      = profiler.EdgeRetry
	EdgeBatch      = profiler.EdgeBatch
	EdgeReplica    = profiler.EdgeReplica
	EdgeContention = profiler.EdgeContention
	EdgeFailure    = profiler.EdgeFailure
	EdgeCheckpoint = profiler.EdgeCheckpoint
)

// BlameSink is the streaming critical-path sink: it digests each terminal
// task into a compact causal summary and runs the online straggler
// detector; Report() decomposes the makespan into blame categories. Use it
// standalone on Config.Sink, or compose it with a FoldSink through TeeSink
// to get summary metrics and blame from one pass.
type BlameSink = obs.Blame

// NewBlameSink returns an empty blame sink.
func NewBlameSink() *BlameSink { return obs.NewBlame() }

// BlameReport is the makespan decomposition of one run: per-category time
// budget (sums exactly to makespan), the critical chain, and flagged
// stragglers.
type BlameReport = analytics.BlameReport

// BlameCategory is one bucket of the decomposition.
type BlameCategory = analytics.BlameCategory

// Blame categories.
const (
	BlameExec       = analytics.BlameExec
	BlameQueue      = analytics.BlameQueue
	BlameStarve     = analytics.BlameStarve
	BlameData       = analytics.BlameData
	BlameService    = analytics.BlameService
	BlameMiddleware = analytics.BlameMiddleware
)

// ComputeBlame decomposes a retained session's traces (the in-memory path;
// streaming runs use a BlameSink instead — both produce identical reports).
func ComputeBlame(tasks []*profiler.TaskTrace) BlameReport {
	return analytics.BlameFromTraces(tasks)
}
