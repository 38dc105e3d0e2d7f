// Package model centralizes every calibrated constant of the runtime
// simulations.
//
// Each parameter is a fit to a number the paper publishes (cited inline).
// The mechanisms (ceilings, queues, scheduler cycles, per-run variability)
// live in the backend packages; this package only holds the dials, so a
// reader can audit the entire substitution in one file and ablation benches
// can perturb it.
package model

import (
	"fmt"
	"math"
)

// Srun holds the Slurm/srun launcher parameters.
type SrunParams struct {
	// Ceiling is Frontier's system-wide cap on concurrent srun
	// invocations. §4.1.1: "a maximum concurrency of 112 tasks"
	// on 224 cores, "a system-wide cap on the number of concurrently
	// active srun processes".
	Ceiling int
	// Mu1 is the step-registration service rate (steps/s) for a 1-node
	// allocation. §6: "srun peaks at 152 tasks/s on a single node".
	Mu1 float64
	// Kappa and Kappa2 are the linear and quadratic controller-contention
	// terms: mu(n) = Mu1 / (1 + Kappa*(n-1) + Kappa2*(n-1)²). Fitted to
	// §6 ("degrades to 61 tasks/s at 4 nodes", ≈33 t/s at 8 in Fig 5a)
	// and to the IMPECCABLE srun makespans at 256/1024 nodes (§4.2),
	// which require super-linear degradation at scale.
	Kappa  float64
	Kappa2 float64
	// StepPenalty scales registration cost with the *step* size:
	// multi-node MPI steps cost (1 + StepPenalty*stepNodes) registrations
	// (co-scheduled launch across job-step nodes).
	StepPenalty float64
	// PrologMedian/PrologSigma shape the lognormal latency between step
	// registration and process start.
	PrologMedian float64
	PrologSigma  float64
	// RunSigma is the per-run lognormal rate-variability of the
	// controller; srun rates in the paper are comparatively stable.
	RunSigma float64
}

// Mu returns the step-registration rate for an n-node allocation.
func (p SrunParams) Mu(n int) float64 {
	if n < 1 {
		n = 1
	}
	f := float64(n - 1)
	return p.Mu1 / (1 + p.Kappa*f + p.Kappa2*f*f)
}

// StepCost returns the registration-cost multiplier for a step spanning
// stepNodes nodes, capped at 4 (beyond that, launch cost is dominated by
// the step's own MPI wire-up, which the task duration models).
func (p SrunParams) StepCost(stepNodes int) float64 {
	if stepNodes < 1 {
		stepNodes = 1
	}
	c := 1 + p.StepPenalty*float64(stepNodes)
	if c > 4 {
		c = 4
	}
	return c
}

// Flux holds the Flux instance parameters.
type FluxParams struct {
	// BootstrapMedian/Sigma: instance startup (broker tree + job shell
	// plugins). Fig 7: ≈20 s, roughly independent of partition size.
	BootstrapMedian float64
	BootstrapSigma  float64
	// BootstrapPerLogNode adds a mild log2(nodes) term (broker tree
	// depth); Fig 7 shows a slight upward trend.
	BootstrapPerLogNode float64
	// R0 and Alpha shape the nominal dispatch rate of one instance over
	// n nodes: R(n) = R0 * n^Alpha. On null workloads the measured
	// average start rate is ≈1.15× nominal (the token bucket starts full,
	// compressing the first burst), so R0=24 reproduces §4.1.2's "≈28
	// tasks/s at 1 node to nearly 300 tasks/s at 1024 nodes";
	// α = ln(300/28)/ln(1024) ≈ 0.342.
	R0    float64
	Alpha float64
	// Cycle is the scheduler-loop period; jobs place in per-cycle
	// batches B = R(n)*Cycle and their shells start spread across the
	// cycle.
	Cycle float64
	// ShellMedian/Sigma: job-shell spawn latency (submit→start for an
	// individual job once allocated).
	ShellMedian float64
	ShellSigma  float64
	// RPCLatency is the client→broker submit RPC latency.
	RPCLatency float64
	// EtaC is the multi-instance coordination penalty:
	// η(k) = 1/(1+EtaC*(k-1)). Fitted to §4.1.3: 16 nodes/16 instances
	// → 195 t/s vs 16·R(1)=448 raw.
	EtaC float64
	// RunSigma is the per-run lognormal rate multiplier. §4.1.2 notes
	// "substantial throughput variability across repetitions"; peak/avg
	// = 744/300 ≈ 2.5 across repetitions.
	RunSigma float64
	// BackfillDepth is how many queued jobs the scheduler looks past a
	// blocked head-of-line job.
	BackfillDepth int
}

// Rate returns the nominal dispatch rate for one instance over n nodes.
func (p FluxParams) Rate(n int) float64 {
	if n < 1 {
		n = 1
	}
	return p.R0 * math.Pow(float64(n), p.Alpha)
}

// Eta returns the coordination efficiency for k concurrent instances.
func (p FluxParams) Eta(k int) float64 {
	if k <= 1 {
		return 1
	}
	return 1 / (1 + p.EtaC*float64(k-1))
}

// Dragon holds the Dragon runtime parameters.
type DragonParams struct {
	// BootstrapMedian/Sigma: runtime startup. Fig 7: ≈9 s, flat in node
	// count.
	BootstrapMedian     float64
	BootstrapSigma      float64
	BootstrapPerLogNode float64
	// ExecR0/ExecN0: centralized dispatcher rate for executable tasks,
	// R(n) = ExecR0 / (1 + n/ExecN0). §4.1.4: ≈343–380 t/s at 4–16
	// nodes, ≈204 t/s at 64 nodes.
	ExecR0 float64
	ExecN0 float64
	// FuncR0/FuncN0: dispatch rate for in-memory Python functions, the
	// native fast path (§3.2.2: "directly launches tasks on workers
	// without intermediate job scheduling layers").
	FuncR0 float64
	FuncN0 float64
	// ShmemLatency is the shared-memory queue hop for completion events.
	ShmemLatency float64
	// SpawnSigma shapes per-task spawn latency spread.
	SpawnSigma float64
	// RunSigma is the per-run rate variability; §4.1.4 peak/avg =
	// 622/343 ≈ 1.8.
	RunSigma float64
	// StartupTimeout guards RP against a hung bootstrap (§3.2.2:
	// "startup timeouts prevent RP from stalling").
	StartupTimeout float64
}

// ExecRate returns the executable-task dispatch rate over n nodes.
func (p DragonParams) ExecRate(n int) float64 {
	if n < 1 {
		n = 1
	}
	return p.ExecR0 / (1 + float64(n)/p.ExecN0)
}

// FuncRate returns the function-task dispatch rate over n nodes.
func (p DragonParams) FuncRate(n int) float64 {
	if n < 1 {
		n = 1
	}
	return p.FuncR0 / (1 + float64(n)/p.FuncN0)
}

// RP holds RADICAL-Pilot middleware parameters.
type RPParams struct {
	// AgentBootstrap is the agent startup time before backend instances
	// launch.
	AgentBootstrap float64
	// PipeLatency is the client↔agent ZeroMQ hop.
	PipeLatency float64
	// SchedRate is the agent scheduler's task-processing rate.
	SchedRate float64
	// ExecutorSubmitOverhead is the per-task serialization cost inside
	// one backend executor (task → job description → RPC). Each executor
	// is single-threaded, so one simulated executor cannot start more
	// than 1/ExecutorSubmitOverhead = 1/0.0012 ≈ 833 t/s. §4.1.5: the
	// 1,547 t/s hybrid peak (two executors) "reflects the current upper
	// bound of RP's task management subsystem". The paper's flux_n peak
	// near 930 t/s (one executor) lies above that cap, so no flux_n cell
	// can reach it here; the bottleneck-oracle item of ROADMAP.md is
	// where that gap is to be settled.
	ExecutorSubmitOverhead float64
	// RetryBackoff is the constant delay before every executor-level
	// resubmission after a failure.
	RetryBackoff float64
	// CrossPartitionLatency is the client↔agent hop when the two live in
	// different simulation partitions (sharded runs): a WAN/ZMQ round trip
	// plus batching, rather than the node-local PipeLatency. It doubles as
	// the sharded engine's conservative lookahead, so it must stay large
	// enough that synchronization windows amortize (≈100 ms matches the
	// paper's client-to-HPC control-plane latencies).
	CrossPartitionLatency float64
}

// Service holds the inference-service subsystem parameters (the
// middleware-side constants; per-model latency shapes live in each
// ServiceDescription).
type ServiceParams struct {
	// RPCLatency is the client→endpoint request hop: tasks and replicas
	// share the allocation, so this is a node-local queue transfer of
	// the same order as Dragon's shmem hop.
	RPCLatency float64
	// DispatchOverhead is the per-batch scheduling cost on a replica
	// (tokenizer/queue-pop/tensor-assembly before the model runs).
	DispatchOverhead float64
}

// Data holds the storage-hierarchy parameters of the data-staging
// subsystem (DESIGN.md "Data model & calibration"). Bandwidths are in
// bytes/s, latencies in seconds.
type DataParams struct {
	// NVMeBandwidth is the per-node local-SSD bandwidth. Each node owns a
	// private channel of this capacity; concurrent transfers on one node
	// share it fairly.
	NVMeBandwidth float64
	// NVMeLatency is the per-transfer setup cost on the local tier.
	NVMeLatency float64
	// SharedFSBase and SharedFSPerNode shape the aggregate parallel-FS
	// bandwidth visible to an n-node allocation:
	// B(n) = SharedFSBase + SharedFSPerNode*n. The per-node term models
	// the striped-OST share growing with the client count, the base term
	// the minimum striping any job sees.
	SharedFSBase    float64
	SharedFSPerNode float64
	// SharedFSLatency is the per-transfer metadata/open cost on the PFS.
	SharedFSLatency float64
	// BurstBufferPerNode is the aggregate burst-buffer bandwidth per
	// allocation node; zero disables the tier.
	BurstBufferPerNode float64
	// BurstBufferLatency is the per-transfer setup cost on the buffer.
	BurstBufferLatency float64
}

// SharedFSBandwidth returns the aggregate parallel-FS bandwidth for an
// n-node allocation.
func (p DataParams) SharedFSBandwidth(n int) float64 {
	if n < 1 {
		n = 1
	}
	return p.SharedFSBase + p.SharedFSPerNode*float64(n)
}

// BurstBufferBandwidth returns the aggregate burst-buffer bandwidth for an
// n-node allocation (zero = tier disabled).
func (p DataParams) BurstBufferBandwidth(n int) float64 {
	if p.BurstBufferPerNode <= 0 {
		return 0
	}
	if n < 1 {
		n = 1
	}
	return p.BurstBufferPerNode * float64(n)
}

// Fault holds the seeded failure-model parameters (internal/fault). The
// zero value disables every mechanism: no RNG streams are consumed and no
// events are scheduled, so zero-failure runs stay bit-identical to builds
// without the fault package wired in. Times are in seconds.
type FaultParams struct {
	// NodeMTBF is the per-node mean time between failures; each node's
	// failure times are exponential draws at this mean. Zero disables
	// node failures.
	NodeMTBF float64
	// NodeDowntime is how long a failed node stays lost before the
	// backfill replacement restores its capacity to the pilot. Zero makes
	// a failure permanent.
	NodeDowntime float64
	// BackendMTBF is the per-instance mean time between backend crashes
	// (Flux brokers, Dragon runtimes, PRRTE DVMs). Zero disables them.
	BackendMTBF float64
	// BackendDowntime is how long a crashed instance stays down before
	// its restart completes bootstrap again. Zero means 60 s.
	BackendDowntime float64
	// StragglerFrac is the fraction of nodes that are slow; each node is
	// flagged by an independent Bernoulli draw at pilot start.
	StragglerFrac float64
	// StragglerFactor stretches plain compute bodies placed on a slow
	// node (>1; a multi-node task runs at its slowest node's factor).
	StragglerFactor float64
	// Horizon bounds the pre-drawn failure schedule (seconds of sim
	// time). The whole schedule is drawn at pilot start so the event
	// stream stays finite and replays are trivially bit-identical; zero
	// defaults to 24 h.
	Horizon float64
	// MaxNodeFailures caps the total node failures drawn (0 = unbounded
	// within Horizon).
	MaxNodeFailures int
}

// DefaultFaultHorizon is the schedule horizon used when Horizon is zero.
const DefaultFaultHorizon = 86400.0

// Enabled reports whether any failure mechanism is switched on.
func (f FaultParams) Enabled() bool {
	return f.NodeMTBF > 0 || f.BackendMTBF > 0 ||
		(f.StragglerFrac > 0 && f.StragglerFactor > 1)
}

// Validate rejects parameters the injector cannot draw a finite schedule
// from, naming the field: a value that is negative or not finite, a
// StragglerFrac above 1, and a nonzero MTBF or downtime below the
// simulator's 1 µs tick, where every draw of the schedule rounds to zero
// and the schedule never advances. A zero keeps its meaning.
func (f FaultParams) Validate() error {
	for _, c := range []struct {
		name    string
		v       float64
		minTick bool
	}{
		{"NodeMTBF", f.NodeMTBF, true},
		{"NodeDowntime", f.NodeDowntime, true},
		{"BackendMTBF", f.BackendMTBF, true},
		{"BackendDowntime", f.BackendDowntime, true},
		{"StragglerFrac", f.StragglerFrac, false},
		{"StragglerFactor", f.StragglerFactor, false},
		{"Horizon", f.Horizon, false},
	} {
		switch {
		case c.v < 0 || math.IsNaN(c.v) || math.IsInf(c.v, 0):
			return fmt.Errorf("model: FaultParams.%s is %v; want a finite value >= 0", c.name, c.v)
		case c.minTick && c.v > 0 && c.v < 1e-6:
			return fmt.Errorf("model: FaultParams.%s is %v s; want 0 or at least 1e-6 (1 µs)", c.name, c.v)
		}
	}
	if f.StragglerFrac > 1 {
		return fmt.Errorf("model: FaultParams.StragglerFrac is %v; want a fraction in [0, 1]", f.StragglerFrac)
	}
	if f.MaxNodeFailures < 0 {
		return fmt.Errorf("model: FaultParams.MaxNodeFailures is %d; want a count >= 0", f.MaxNodeFailures)
	}
	return nil
}

// HorizonOrDefault returns the schedule horizon in seconds.
func (f FaultParams) HorizonOrDefault() float64 {
	if f.Horizon > 0 {
		return f.Horizon
	}
	return DefaultFaultHorizon
}

// Params bundles all model constants.
type Params struct {
	Srun    SrunParams
	Flux    FluxParams
	Dragon  DragonParams
	RP      RPParams
	Service ServiceParams
	Data    DataParams
	Fault   FaultParams
}

// Default returns the calibrated parameter set. experiments.ReportClaims
// prints the paper-vs-measured headline numbers it yields
// (go run ./cmd/rpbench -only claims).
func Default() Params {
	return Params{
		Srun: SrunParams{
			Ceiling:      112,
			Mu1:          152,
			Kappa:        0.45,
			Kappa2:       0.001,
			StepPenalty:  0.25,
			PrologMedian: 0.120,
			PrologSigma:  0.35,
			RunSigma:     0.08,
		},
		Flux: FluxParams{
			BootstrapMedian:     19.0,
			BootstrapSigma:      0.06,
			BootstrapPerLogNode: 0.35,
			R0:                  24,
			Alpha:               0.342,
			Cycle:               0.5,
			ShellMedian:         0.100,
			ShellSigma:          0.45,
			RPCLatency:          0.002,
			EtaC:                0.05,
			RunSigma:            0.42,
			BackfillDepth:       128,
		},
		Dragon: DragonParams{
			BootstrapMedian:     8.8,
			BootstrapSigma:      0.08,
			BootstrapPerLogNode: 0.12,
			ExecR0:              460,
			ExecN0:              64,
			FuncR0:              900,
			FuncN0:              96,
			ShmemLatency:        0.0002,
			SpawnSigma:          0.30,
			RunSigma:            0.28,
			StartupTimeout:      60,
		},
		RP: RPParams{
			AgentBootstrap:         2.0,
			PipeLatency:            0.001,
			SchedRate:              3200,
			ExecutorSubmitOverhead: 0.0012,
			RetryBackoff:           1.0,
			CrossPartitionLatency:  0.1,
		},
		Service: ServiceParams{
			RPCLatency:       0.0005,
			DispatchOverhead: 0.0008,
		},
		Data: DataParams{
			NVMeBandwidth:      5e9, // ~5 GB/s sequential, one enterprise NVMe drive
			NVMeLatency:        0.0002,
			SharedFSBase:       10e9, // minimum striped share of the site PFS
			SharedFSPerNode:    2e9,  // per-client scaling until OSTs saturate
			SharedFSLatency:    0.010,
			BurstBufferPerNode: 4e9, // node-attached flash aggregated per job
			BurstBufferLatency: 0.001,
		},
	}
}
