// Package platform models the HPC machine: node hardware profiles, a
// cluster of nodes, and per-node core/GPU slot ledgers.
//
// The model corresponds to OLCF Frontier as used in the paper: 64-core AMD
// EPYC nodes with 8 of those cores reserved for the OS (56 usable, "cpn" in
// the paper's Table 1), up to 4 hardware threads per core, and 8 MI250X GCDs
// exposed as 8 GPUs per node. Placement and accounting are exact; compute is
// virtual (tasks carry their own durations).
package platform

import (
	"fmt"
	"slices"

	"rpgo/internal/sim"
)

// NodeSpec describes the hardware of one node type.
type NodeSpec struct {
	// UsableCores is the number of cores available to tasks (physical
	// cores minus OS-reserved ones).
	UsableCores int
	// SMT is the active hardware threads per core (1, 2 or 4).
	SMT int
	// GPUs is the number of GPU devices per node.
	GPUs int
}

// Slots returns the schedulable CPU slots per node (cores × SMT).
func (s NodeSpec) Slots() int { return s.UsableCores * s.SMT }

// Frontier returns the Frontier node profile with the given SMT level.
// The paper's experiments use SMT=1 (4 nodes → 224 cores).
func Frontier(smt int) NodeSpec {
	if smt != 1 && smt != 2 && smt != 4 {
		panic(fmt.Sprintf("platform: invalid SMT level %d", smt))
	}
	return NodeSpec{
		UsableCores: 56,
		SMT:         smt,
		GPUs:        8,
	}
}

// Node is one compute node with slot ledgers.
type Node struct {
	ID      int
	Spec    NodeSpec
	freeCPU int
	freeGPU int
	down    bool // lost to a failure; reports zero free capacity
}

// FreeCPU returns the free CPU slots on the node; a down node has none.
func (n *Node) FreeCPU() int {
	if n.down {
		return 0
	}
	return n.freeCPU
}

// FreeGPU returns the free GPU slots on the node; a down node has none.
func (n *Node) FreeGPU() int {
	if n.down {
		return 0
	}
	return n.freeGPU
}

// Cluster is a set of nodes of a single profile.
type Cluster struct {
	Spec  NodeSpec
	nodes []*Node
	// epoch counts capacity increases (releases). Placers cache negative
	// placement results ("nothing ≥ this size fits") tagged with the
	// epoch; any release invalidates those caches, claims never do —
	// claims only shrink capacity, so a cached "cannot fit" stays true.
	epoch uint64
}

// Epoch returns the capacity epoch: it increments whenever slots are
// released anywhere on the cluster (including through nested allocations
// that share node ledgers).
func (c *Cluster) Epoch() uint64 { return c.epoch }

// NewCluster builds a cluster of n nodes with the given spec. Its
// allocation count does not grow with n: the nodes share one array.
func NewCluster(spec NodeSpec, n int) *Cluster {
	if n <= 0 {
		panic("platform: cluster needs at least one node")
	}
	c := &Cluster{Spec: spec}
	arr := make([]Node, n)
	c.nodes = make([]*Node, n)
	for i := range arr {
		arr[i] = Node{
			ID:      i,
			Spec:    spec,
			freeCPU: spec.Slots(),
			freeGPU: spec.GPUs,
		}
		c.nodes[i] = &arr[i]
	}
	return c
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// FailNode marks node id down: its free capacity reads as zero, so every
// placement scan skips it, while its internal ledgers stay intact —
// placements already on the node release normally when their victims are
// evicted. The epoch advances so placers drop cached placement state.
// Returns false if the node was already down.
func (c *Cluster) FailNode(id int) bool {
	n := c.nodes[id]
	if n.down {
		return false
	}
	n.down = true
	c.epoch++
	return true
}

// RestoreNode returns a failed node to service (the backfill replacement
// coming up). The epoch advances because capacity grew: cached "cannot
// fit" results are no longer valid. Returns false if the node was not down.
func (c *Cluster) RestoreNode(id int) bool {
	n := c.nodes[id]
	if !n.down {
		return false
	}
	n.down = false
	c.epoch++
	return true
}

// DownNodes returns the number of currently failed nodes.
func (c *Cluster) DownNodes() int {
	d := 0
	for _, n := range c.nodes {
		if n.down {
			d++
		}
	}
	return d
}

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Allocation is a set of nodes granted to a pilot job. Backends partition
// allocations further; placement happens against the allocation's ledger.
type Allocation struct {
	Cluster *Cluster
	Nodes   []*Node
}

// Allocate grants n whole nodes from the cluster. It panics if the request
// exceeds the machine: batch-queue waiting time is out of scope (the paper
// measures inside an active allocation).
func (c *Cluster) Allocate(n int) *Allocation {
	if n > len(c.nodes) {
		panic(fmt.Sprintf("platform: allocation of %d nodes exceeds cluster size %d", n, len(c.nodes)))
	}
	a := &Allocation{Cluster: c, Nodes: c.nodes[:n]}
	return a
}

// Size returns the number of allocated nodes.
func (a *Allocation) Size() int { return len(a.Nodes) }

// TotalCPU returns the CPU slots in the allocation.
func (a *Allocation) TotalCPU() int { return len(a.Nodes) * a.Cluster.Spec.Slots() }

// Partition splits the allocation into k contiguous sub-allocations of
// near-equal size (remainder nodes spread over the first partitions).
func (a *Allocation) Partition(k int) []*Allocation {
	if k <= 0 {
		panic("platform: partition count must be positive")
	}
	if k > len(a.Nodes) {
		panic(fmt.Sprintf("platform: cannot split %d nodes into %d partitions", len(a.Nodes), k))
	}
	parts := make([]*Allocation, k)
	base := len(a.Nodes) / k
	rem := len(a.Nodes) % k
	idx := 0
	for i := 0; i < k; i++ {
		n := base
		if i < rem {
			n++
		}
		parts[i] = &Allocation{Cluster: a.Cluster, Nodes: a.Nodes[idx : idx+n]}
		idx += n
	}
	return parts
}

// SplitNodes divides a facility-wide node count over d partition domains,
// remainder spread over the first domains — the node-count view of
// Partition for sharded sessions, where each pilot domain builds its own
// Cluster and only the sizes must agree across shard counts. The split is
// purely arithmetic, so it is deterministic and mapping-invariant.
func SplitNodes(total, d int) []int {
	if d <= 0 {
		panic("platform: domain count must be positive")
	}
	if total < d {
		panic(fmt.Sprintf("platform: cannot split %d nodes into %d domains", total, d))
	}
	sizes := make([]int, d)
	base := total / d
	rem := total % d
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
	}
	return sizes
}

// Slice returns a sub-allocation of n nodes starting at offset start within
// this allocation. The sub-allocation shares the parent's node ledgers
// (used for nested Flux instances).
func (a *Allocation) Slice(start, n int) *Allocation {
	if start < 0 || n <= 0 || start+n > len(a.Nodes) {
		panic(fmt.Sprintf("platform: invalid slice [%d:%d) of %d-node allocation", start, start+n, len(a.Nodes)))
	}
	return &Allocation{Cluster: a.Cluster, Nodes: a.Nodes[start : start+n]}
}

// Placement is a concrete resource assignment for one task: Cores CPU
// slots and GPUs GPU slots on each node in NodeIDs. Every placement the
// placer makes is uniform across its nodes.
//
// SetNode keeps a single node's ID inline, so placing a single-node task
// costs no allocation; NodeIDs then points into the placement itself, and
// a placement must not be copied by value once set. SetNodes keeps the
// slice it is given for a multi-node placement.
type Placement struct {
	// NodeIDs lists the nodes involved.
	NodeIDs []int
	// Cores and GPUs are the slots claimed on each node in NodeIDs.
	Cores int
	GPUs  int

	// node is the inline backing of a single-node NodeIDs.
	node [1]int
}

// SetNode makes p claim cores and gpus on one node, kept inline.
func (p *Placement) SetNode(id, cores, gpus int) {
	p.node[0] = id
	p.NodeIDs = p.node[:]
	p.Cores, p.GPUs = cores, gpus
}

// SetNodes makes p claim cores and gpus on each of ids. It keeps ids itself
// as NodeIDs, without copying, so the caller must leave those elements
// unchanged while the placement lives.
func (p *Placement) SetNodes(ids []int, cores, gpus int) {
	p.NodeIDs = ids
	p.Cores, p.GPUs = cores, gpus
}

// Includes reports whether the placement claims slots on the node.
func (p *Placement) Includes(node int) bool { return slices.Contains(p.NodeIDs, node) }

// Claim marks the placement's slots busy. It returns an error if any slot is
// unavailable; on error nothing is claimed.
func (a *Allocation) Claim(at sim.Time, p *Placement) error {
	// Validate first so the claim is all-or-nothing.
	for _, id := range p.NodeIDs {
		n := a.Cluster.nodes[id]
		if p.Cores > n.freeCPU {
			return fmt.Errorf("platform: node %d has %d free CPU slots, need %d", id, n.freeCPU, p.Cores)
		}
		if p.GPUs > n.freeGPU {
			return fmt.Errorf("platform: node %d has %d free GPU slots, need %d", id, n.freeGPU, p.GPUs)
		}
	}
	for _, id := range p.NodeIDs {
		n := a.Cluster.nodes[id]
		n.freeCPU -= p.Cores
		n.freeGPU -= p.GPUs
	}
	_ = at // placement time is kept in the signature for symmetry and tracing hooks
	return nil
}

// Release returns the placement's slots to the free pool and advances the
// cluster's capacity epoch (invalidating placers' negative-fit caches).
func (a *Allocation) Release(at sim.Time, p *Placement) {
	for _, id := range p.NodeIDs {
		n := a.Cluster.nodes[id]
		n.freeCPU += p.Cores
		n.freeGPU += p.GPUs
		if n.freeCPU > n.Spec.Slots() || n.freeGPU > n.Spec.GPUs {
			panic(fmt.Sprintf("platform: double release on node %d", id))
		}
	}
	a.Cluster.epoch++
	_ = at
}
