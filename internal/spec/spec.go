// Package spec defines the descriptions users submit to RADICAL-Pilot:
// tasks, pilots, services, and backend/partition configuration.
package spec

import (
	"fmt"
	"math"
	"strings"

	"rpgo/internal/sim"
)

// TaskKind distinguishes the two task modalities the paper integrates:
// standalone executables (compiled binaries, MPI applications) and Python
// functions (ML and analytics workloads).
type TaskKind int

const (
	// Executable is a standalone binary launched as a system process.
	Executable TaskKind = iota
	// Function is an in-process Python function dispatched to a worker.
	Function
)

func (k TaskKind) String() string {
	switch k {
	case Executable:
		return "executable"
	case Function:
		return "function"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// Backend selects the task runtime system that executes a task.
type Backend int

const (
	// BackendAuto lets the agent route by task kind and policy.
	BackendAuto Backend = iota
	// BackendSrun launches through Slurm's srun.
	BackendSrun
	// BackendFlux launches through a Flux instance.
	BackendFlux
	// BackendDragon launches through a Dragon runtime.
	BackendDragon
	// BackendPRRTE launches through a PRRTE distributed virtual machine.
	BackendPRRTE
)

func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendSrun:
		return "srun"
	case BackendFlux:
		return "flux"
	case BackendDragon:
		return "dragon"
	case BackendPRRTE:
		return "prrte"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Coupling classifies the coordination pattern of a task (paper §2): it
// informs routing and is recorded in traces for analysis.
type Coupling int

const (
	// LooselyCoupled tasks run independently (docking, inference).
	LooselyCoupled Coupling = iota
	// TightlyCoupled tasks need co-scheduled multi-node launch (MPI).
	TightlyCoupled
	// DataCoupled tasks communicate through shared memory or queues.
	DataCoupled
)

func (c Coupling) String() string {
	switch c {
	case LooselyCoupled:
		return "loose"
	case TightlyCoupled:
		return "tight"
	case DataCoupled:
		return "data"
	default:
		return fmt.Sprintf("Coupling(%d)", int(c))
	}
}

// StageTier names a level of the simulated storage hierarchy. The zero
// value is the shared parallel file system, the tier every dataset can
// always reach.
type StageTier int

const (
	// TierSharedFS is the site-wide parallel file system (Lustre/Orion):
	// large aggregate bandwidth shared by every node of the allocation.
	TierSharedFS StageTier = iota
	// TierNodeLocal is per-node NVMe: private bandwidth, but data staged
	// there is visible only to tasks placed on that node.
	TierNodeLocal
	// TierBurstBuffer is an optional intermediate flash tier shared by
	// the allocation (zero bandwidth in the model disables it).
	TierBurstBuffer
)

func (t StageTier) String() string {
	switch t {
	case TierSharedFS:
		return "sharedfs"
	case TierNodeLocal:
		return "nodelocal"
	case TierBurstBuffer:
		return "burstbuffer"
	default:
		return fmt.Sprintf("StageTier(%d)", int(t))
	}
}

func (t StageTier) valid() bool {
	return t == TierSharedFS || t == TierNodeLocal || t == TierBurstBuffer
}

// StagingDirective names one dataset a task consumes or produces and where
// it must live. Transfers run through the data subsystem's shared-bandwidth
// channels, so staging time depends on size, tier, and concurrent traffic.
type StagingDirective struct {
	// Dataset identifies the data; tasks naming the same dataset share
	// replicas (and locality) through the placement registry.
	Dataset string
	// SizeBytes is the dataset size.
	SizeBytes int64
	// Source is where an input currently lives. Outputs originate on the
	// producing node and ignore Source.
	Source StageTier
	// Dest is where an input must be staged before compute starts, or
	// the tier an output is written to.
	Dest StageTier
}

// Validate checks constraints common to input and output directives.
// Input-only constraints are enforced by TaskDescription.Validate.
func (d *StagingDirective) Validate() error {
	if d.Dataset == "" {
		return fmt.Errorf("spec: staging directive without dataset name")
	}
	if d.SizeBytes < 0 {
		return fmt.Errorf("spec: dataset %q has negative size", d.Dataset)
	}
	if !d.Source.valid() || !d.Dest.valid() {
		return fmt.Errorf("spec: dataset %q names an invalid tier", d.Dataset)
	}
	return nil
}

// TaskDescription is what a user or workflow system submits.
type TaskDescription struct {
	// UID identifies the task; empty UIDs are assigned by the task
	// manager, which writes them here. A UID must be unique in its
	// session: the task manager fails a task whose UID was used before.
	// Resubmitting a description whose UID Submit filled in counts as such
	// a repeat.
	UID string
	// Kind is the task modality.
	Kind TaskKind
	// Coupling is the coordination pattern.
	Coupling Coupling
	// Nodes requests whole nodes (tightly coupled multi-node tasks).
	// Zero means the task is packed by cores.
	Nodes int
	// CoresPerRank is CPU slots per rank; Ranks is the number of ranks.
	// A plain single-core task is {CoresPerRank: 1, Ranks: 1}.
	CoresPerRank int
	Ranks        int
	// GPUsPerRank is GPU slots per rank.
	GPUsPerRank int
	// Duration is the virtual execution time of the task body. Null
	// workloads use zero; dummy workloads use the sleep duration.
	Duration sim.Duration
	// InputData / OutputData are sized, named-dataset staging directives
	// handled by the data subsystem: contention-aware transfers through
	// the storage hierarchy, locality tracking, and data-aware placement.
	// A task without them stages nothing.
	InputData  []StagingDirective
	OutputData []StagingDirective
	// Backend pins the task to a runtime system; BackendAuto routes by
	// kind.
	Backend Backend
	// MaxRetries is how many times the agent resubmits the task after an
	// infrastructure failure before marking it FAILED.
	MaxRetries int
	// Workflow and Stage tag campaign tasks for analytics.
	Workflow string
	Stage    string
	// CheckpointInterval enables checkpoint/restart for the compute body:
	// every interval of virtual compute, the task writes CheckpointBytes to
	// CheckpointDest through the data subsystem (contending for bandwidth
	// like any transfer). After a failure the relocated attempt stages the
	// last checkpoint back in and resumes from the saved fraction instead
	// of recomputing from zero. Zero disables checkpointing.
	CheckpointInterval sim.Duration
	// CheckpointBytes is the size of one checkpoint image.
	CheckpointBytes int64
	// CheckpointDest is the tier checkpoints are written to; the zero
	// value is the shared file system.
	CheckpointDest StageTier
	// Service marks long-running service tasks managed by the service
	// manager (started before the workload, stopped at teardown).
	// Service-endpoint replicas deployed through a ServiceDescription
	// carry this flag implicitly.
	Service bool
	// Requests couples the task to deployed inference services: at each
	// call's phase of the compute body, the task issues the call's
	// requests and blocks until the responses arrive (see ServiceCall).
	Requests []ServiceCall
}

// TotalCores returns the CPU slots the task occupies.
func (t *TaskDescription) TotalCores() int {
	ranks := t.Ranks
	if ranks <= 0 {
		ranks = 1
	}
	cpr := t.CoresPerRank
	if cpr <= 0 {
		cpr = 1
	}
	return ranks * cpr
}

// TotalGPUs returns the GPU slots the task occupies.
func (t *TaskDescription) TotalGPUs() int {
	ranks := t.Ranks
	if ranks <= 0 {
		ranks = 1
	}
	if t.GPUsPerRank <= 0 {
		return 0
	}
	return ranks * t.GPUsPerRank
}

// MultiNode reports whether the task needs co-scheduled whole nodes.
func (t *TaskDescription) MultiNode() bool { return t.Nodes > 1 }

// HasStaging reports whether the task carries sized staging directives
// (and therefore routes through the data subsystem).
func (t *TaskDescription) HasStaging() bool {
	return len(t.InputData) > 0 || len(t.OutputData) > 0
}

// Checkpointed reports whether the task periodically persists its state
// for checkpoint/restart.
func (t *TaskDescription) Checkpointed() bool {
	return t.CheckpointInterval > 0 && t.CheckpointBytes > 0
}

// Validate checks the description for inconsistencies.
func (t *TaskDescription) Validate(slotsPerNode, gpusPerNode int) error {
	if t.Ranks < 0 || t.CoresPerRank < 0 || t.GPUsPerRank < 0 || t.Nodes < 0 {
		return fmt.Errorf("spec: negative resource request in task %q", t.UID)
	}
	if t.Duration < 0 {
		return fmt.Errorf("spec: negative duration in task %q", t.UID)
	}
	if t.Nodes == 0 {
		if t.TotalCores() > slotsPerNode {
			return fmt.Errorf("spec: task %q needs %d cores on one node (max %d); set Nodes",
				t.UID, t.TotalCores(), slotsPerNode)
		}
		if t.TotalGPUs() > gpusPerNode {
			return fmt.Errorf("spec: task %q needs %d GPUs on one node (max %d); set Nodes",
				t.UID, t.TotalGPUs(), gpusPerNode)
		}
	}
	if t.Kind == Function && t.MultiNode() {
		return fmt.Errorf("spec: function task %q cannot span nodes", t.UID)
	}
	for i := range t.InputData {
		if err := t.InputData[i].Validate(); err != nil {
			return fmt.Errorf("task %q input %d: %w", t.UID, i, err)
		}
		if t.InputData[i].Source == TierNodeLocal {
			return fmt.Errorf("task %q input %d: spec: dataset %q: inputs cannot source from node-local storage (no node binding at submit time)",
				t.UID, i, t.InputData[i].Dataset)
		}
	}
	for i := range t.OutputData {
		if err := t.OutputData[i].Validate(); err != nil {
			return fmt.Errorf("task %q output %d: %w", t.UID, i, err)
		}
	}
	if t.CheckpointInterval < 0 || t.CheckpointBytes < 0 {
		return fmt.Errorf("spec: negative checkpoint parameter in task %q", t.UID)
	}
	if t.CheckpointInterval > 0 && !t.CheckpointDest.valid() {
		return fmt.Errorf("spec: task %q names an invalid checkpoint tier", t.UID)
	}
	if len(t.Requests) > 0 {
		if t.Service {
			return fmt.Errorf("spec: service task %q cannot itself issue service requests", t.UID)
		}
		for _, c := range t.Requests {
			if err := c.Validate(); err != nil {
				return fmt.Errorf("task %q: %w", t.UID, err)
			}
		}
	}
	return nil
}

// PartitionConfig configures one group of backend instances inside a pilot.
type PartitionConfig struct {
	// Backend is the runtime system type for these partitions.
	Backend Backend
	// Instances is how many concurrent instances to run.
	Instances int
	// NodesPerInstance fixes the partition size; zero divides the share
	// evenly.
	NodesPerInstance int
	// NodeShare is the fraction of pilot nodes given to this backend
	// group when several groups coexist (flux+dragon). Zero means split
	// evenly among groups.
	NodeShare float64
}

// PlacementPolicy selects how backends pick nodes for tasks.
type PlacementPolicy int

const (
	// PlacePack is the legacy locality-blind policy: a ring cursor packs
	// single-node tasks, multi-node tasks take the first free nodes.
	PlacePack PlacementPolicy = iota
	// PlaceDataAware prefers nodes that already hold a task's node-local
	// input datasets (most bytes held first, lowest node ID breaking
	// ties), falling back to PlacePack when no replica exists or the
	// preferred nodes are full.
	PlaceDataAware
)

func (p PlacementPolicy) String() string {
	switch p {
	case PlacePack:
		return "pack"
	case PlaceDataAware:
		return "data-aware"
	default:
		return fmt.Sprintf("PlacementPolicy(%d)", int(p))
	}
}

// PilotDescription requests a resource allocation and its runtime layout.
type PilotDescription struct {
	// UID identifies the pilot.
	UID string
	// Nodes is the allocation size in nodes.
	Nodes int
	// SMT is the hardware-thread level (1, 2 or 4); zero defaults to 1.
	SMT int
	// Runtime caps the pilot lifetime; zero means unlimited.
	Runtime sim.Duration
	// Partitions lays out backend instances. Empty defaults to a single
	// srun executor over the whole allocation (RP's default executor).
	Partitions []PartitionConfig
	// Placement selects the node-placement policy for the pilot's
	// backends; the zero value keeps the legacy pack policy.
	Placement PlacementPolicy
}

// Validate checks the pilot description: every partition group pins a
// known backend that no other group names, and gets at least one node per
// instance. The agent routes by backend, so a second group of a backend
// would never run a task; one group takes any number of instances.
func (p *PilotDescription) Validate() error {
	if p.Nodes <= 0 {
		return fmt.Errorf("spec: pilot %q needs at least one node", p.UID)
	}
	switch p.SMT {
	case 0, 1, 2, 4:
	default:
		return fmt.Errorf("spec: pilot %q has invalid SMT %d", p.UID, p.SMT)
	}
	total := 0
	var named [BackendPRRTE + 1]bool
	for i, pc := range p.Partitions {
		switch {
		case pc.Instances <= 0:
			return fmt.Errorf("spec: pilot %q partition %d has no instances", p.UID, i)
		case pc.Backend == BackendAuto:
			return fmt.Errorf("spec: pilot %q partition %d must pin a backend", p.UID, i)
		case pc.Backend > BackendPRRTE || pc.Backend < BackendAuto:
			return fmt.Errorf("spec: pilot %q partition %d names unknown %v", p.UID, i, pc.Backend)
		case named[pc.Backend]:
			return fmt.Errorf("spec: pilot %q partition %d names %v, which an earlier group runs", p.UID, i, pc.Backend)
		case pc.Instances > p.Nodes || pc.NodesPerInstance < 0 || pc.NodesPerInstance > p.Nodes:
			return fmt.Errorf("spec: pilot %q partition %d asks %d instances of %d nodes from %d nodes",
				p.UID, i, pc.Instances, pc.NodesPerInstance, p.Nodes)
		case pc.NodeShare < 0 || math.IsNaN(pc.NodeShare) || math.IsInf(pc.NodeShare, 0):
			return fmt.Errorf("spec: pilot %q partition %d has NodeShare %v", p.UID, i, pc.NodeShare)
		}
		named[pc.Backend] = true
		total += pc.Instances * pc.NodesPerInstance
	}
	if total > p.Nodes {
		return fmt.Errorf("spec: pilot %q partitions need %d nodes, allocation has %d", p.UID, total, p.Nodes)
	}
	for i, n := range p.GroupNodes() {
		if n < p.Partitions[i].Instances {
			return fmt.Errorf("spec: pilot %q partition %d gets %d nodes for %d instances",
				p.UID, i, n, p.Partitions[i].Instances)
		}
	}
	return nil
}

// GroupNodes returns how many of the pilot's nodes each partition group
// gets. A fixed group (NodesPerInstance > 0) takes Instances ×
// NodesPerInstance; the flexible groups split what is left in proportion
// to their NodeShare (zero counts as 1), the last one absorbing rounding.
func (p *PilotDescription) GroupNodes() []int {
	out := make([]int, len(p.Partitions))
	free, nFlex := p.Nodes, 0
	var flexShare float64
	for i, pc := range p.Partitions {
		if pc.NodesPerInstance > 0 {
			out[i] = pc.Instances * pc.NodesPerInstance
			free -= out[i]
		} else {
			flexShare += pc.share()
			nFlex++
		}
	}
	taken := 0
	for i, pc := range p.Partitions {
		if pc.NodesPerInstance > 0 {
			continue
		}
		if nFlex--; nFlex == 0 {
			out[i] = free - taken
		} else {
			out[i] = int(math.Floor(float64(free) * pc.share() / flexShare))
		}
		taken += out[i]
	}
	return out
}

// share is the group's weight in the split of the nodes no fixed group
// takes.
func (pc PartitionConfig) share() float64 {
	if pc.NodeShare <= 0 {
		return 1
	}
	return pc.NodeShare
}

// WriteSeqUID writes prefix and seq zero-padded to six digits to sb, the
// bytes of fmt.Sprintf(prefix+"%06d", seq): the form of the UIDs a
// session gives tasks ("task.") and a data system gives transfers
// ("xfer.").
func WriteSeqUID(sb *strings.Builder, prefix string, seq uint64) {
	var buf [20]byte
	i := len(buf)
	for seq > 0 || i > len(buf)-6 {
		i--
		buf[i] = byte('0' + seq%10)
		seq /= 10
	}
	sb.WriteString(prefix)
	sb.Write(buf[i:])
}
