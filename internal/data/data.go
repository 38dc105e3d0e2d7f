// Package data is the discrete-event storage subsystem: a tiered hierarchy
// (node-local NVMe, shared parallel FS, optional burst buffer), named
// datasets with byte sizes, shared-bandwidth transfer channels that model
// contention through the sim engine, and a placement registry tracking
// which nodes hold which datasets.
//
// The subsystem gives the simulator what the paper's hybrid AI-HPC
// campaigns actually stress — model weights fanning out to trainers,
// checkpoints hammering the parallel FS, datasets handed from producers to
// consumers across DAG stages — and it is what the agent's data-aware
// placement policy reads to keep tasks next to their inputs.
package data

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// Byte-size helpers for workload builders and tests.
const (
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

// chunk is how many objects of one kind — transfer UIDs, flows, registry
// entries — the system carves from one allocation. Nothing carved is ever
// reused: a chunk is freed once nothing refers to any object in it.
const chunk = 64

// carve takes one object from the chunk spare, starting a new chunk when
// it is used up.
func carve[T any](spare *[]T) *T {
	if len(*spare) == 0 {
		*spare = make([]T, chunk)
	}
	p := &(*spare)[0]
	*spare = (*spare)[1:]
	return p
}

// System is the storage model for one allocation: its channels, its
// placement registry, and the flow engine moving bytes between them.
type System struct {
	eng    *sim.Engine
	prof   *profiler.Profiler
	params model.DataParams

	shared *Channel
	burst  *Channel // nil when the tier is disabled
	// nvme[i] is the NVMe channel of the allocation's i-th node (cluster
	// node firstNode+i), built on the node's first transfer; workloads that
	// move no data never pay for them.
	nvme      []*Channel
	firstNode int
	nodes     int
	// channels lists every channel built so far for recompute sweeps, in
	// a fixed deterministic order.
	channels []*Channel

	reg *Registry

	// routes holds every route used so far; active lists those with flows
	// in flight, in the order they became busy. nFlows counts the flows.
	routes map[routeKey]*route
	active []*route
	nFlows int
	// done is tick's scratch list of finished flows.
	done []*flow
	seq  uint64
	// uidSeq numbers transfers for causal references; assigned when the
	// transfer API is called (before setup latency) so coalescing joiners
	// can name the movement they ride.
	uidSeq uint64
	lastT  sim.Time
	timer  sim.Timer
	// uids holds the chunk transfer UIDs are written to (nextUID), and
	// flows the one their flows are carved from.
	uids  strings.Builder
	flows []flow
	// startFn and tickFn are start and tick bound once, so scheduling
	// them allocates nothing.
	startFn func(any)
	tickFn  func()

	// pendingNode coalesces concurrent stage-ins of the same dataset to
	// the same node: the first request transfers, later ones join as
	// waiters — one copy moves no matter how many tasks want it.
	// pendingTier does the same for tier-to-tier transfers. A dataset's
	// map is kept once made, so a repeat transfer of it allocates nothing.
	pendingNode map[string]map[int]pendingXfer
	pendingTier map[string]map[spec.StageTier]pendingXfer

	hits       int
	misses     int
	bytesMoved int64
	// transfers counts finished transfers, coalesced the requests that
	// joined one in flight, and stalls the flows that joined a busy
	// channel; peakFlows is the most flows ever in flight at once.
	transfers int
	coalesced int
	stalls    int
	peakFlows int
}

// NewSystem builds the storage model over the allocation's nodes. Zero or
// negative bandwidth dials fall back to the calibrated defaults so a
// partially filled Params cannot divide by zero.
func NewSystem(eng *sim.Engine, alloc *platform.Allocation, p model.DataParams, prof *profiler.Profiler) *System {
	def := model.Default().Data
	if p.NVMeBandwidth <= 0 {
		p.NVMeBandwidth = def.NVMeBandwidth
	}
	if p.SharedFSBase <= 0 && p.SharedFSPerNode <= 0 {
		p.SharedFSBase, p.SharedFSPerNode = def.SharedFSBase, def.SharedFSPerNode
	}
	n := alloc.Size()
	s := &System{
		eng:         eng,
		prof:        prof,
		params:      p,
		nodes:       n,
		reg:         NewRegistry(),
		pendingNode: make(map[string]map[int]pendingXfer),
		pendingTier: make(map[string]map[spec.StageTier]pendingXfer),
	}
	s.shared = &Channel{name: "sharedfs", capacity: p.SharedFSBandwidth(n)}
	s.channels = append(s.channels, s.shared)
	if bb := p.BurstBufferBandwidth(n); bb > 0 {
		s.burst = &Channel{name: "burstbuffer", capacity: bb}
		s.channels = append(s.channels, s.burst)
	}
	if n > 0 {
		// An allocation is a contiguous run of cluster node IDs, so a
		// node's index is its offset from the first.
		s.firstNode = alloc.Nodes[0].ID
		if alloc.Nodes[n-1].ID != s.firstNode+n-1 {
			panic("data: allocation node IDs are not contiguous")
		}
	}
	s.startFn, s.tickFn = s.start, s.tick
	return s
}

// nodeChannel returns node id's NVMe channel, building it on first use;
// nil for nodes outside the allocation.
func (s *System) nodeChannel(id int) *Channel {
	i := s.nodeIndex(id)
	if i < 0 {
		return nil
	}
	if s.nvme == nil {
		s.nvme = make([]*Channel, s.nodes)
	}
	ch := s.nvme[i]
	if ch == nil {
		ch = &Channel{name: "nvme:" + strconv.Itoa(id), capacity: s.params.NVMeBandwidth}
		s.nvme[i] = ch
		s.channels = append(s.channels, ch)
	}
	return ch
}

// nodeIndex returns node id's offset in the allocation, -1 for nodes
// outside it.
func (s *System) nodeIndex(id int) int {
	if i := id - s.firstNode; i >= 0 && i < s.nodes {
		return i
	}
	return -1
}

// nodeName names node's NVMe endpoint in transfer traces, reusing its
// channel's name when it has one.
func nodeName(node int, ch *Channel) string {
	if ch != nil {
		return ch.name
	}
	return fmt.Sprintf("nvme:%d", node)
}

// Registry returns the dataset placement registry.
func (s *System) Registry() *Registry { return s.reg }

// SharedChannel returns the parallel-FS channel.
func (s *System) SharedChannel() *Channel { return s.shared }

// BytesMoved returns the total bytes transferred so far.
func (s *System) BytesMoved() int64 { return s.bytesMoved }

// Transfers returns the transfers finished so far, CoalescedJoins the
// requests that joined a transfer already in flight, and ContentionStalls
// the flows that joined a channel other flows were crossing.
func (s *System) Transfers() int        { return s.transfers }
func (s *System) CoalescedJoins() int   { return s.coalesced }
func (s *System) ContentionStalls() int { return s.stalls }

// Hits and Misses return the locality counters; HitRate the derived rate.
func (s *System) Hits() int   { return s.hits }
func (s *System) Misses() int { return s.misses }

// HitRate returns hits/(hits+misses), zero before any lookup.
func (s *System) HitRate() float64 {
	if s.hits+s.misses == 0 {
		return 0
	}
	return float64(s.hits) / float64(s.hits+s.misses)
}

// RecordHit / RecordMiss update the locality counters (the agent calls
// them as it resolves each input directive).
func (s *System) RecordHit()  { s.hits++ }
func (s *System) RecordMiss() { s.misses++ }

// tierChannel maps a shared tier to its channel; a disabled burst buffer
// degrades to the parallel FS.
func (s *System) tierChannel(t spec.StageTier) *Channel {
	if t == spec.TierBurstBuffer && s.burst != nil {
		return s.burst
	}
	return s.shared
}

// tierLatency is the per-transfer setup cost at a tier endpoint.
func (s *System) tierLatency(t spec.StageTier) float64 {
	switch t {
	case spec.TierNodeLocal:
		return s.params.NVMeLatency
	case spec.TierBurstBuffer:
		if s.burst != nil {
			return s.params.BurstBufferLatency
		}
		return s.params.SharedFSLatency
	default:
		return s.params.SharedFSLatency
	}
}

// Seed marks a dataset as present at a tier without moving bytes — inputs
// sourced from a tier are by definition already there.
func (s *System) Seed(dataset string, tier spec.StageTier) {
	s.reg.RegisterTier(dataset, s.EffectiveTier(tier))
}

// EffectiveTier returns the tier that holds data sent to t: a disabled
// burst buffer degrades to the parallel FS.
func (s *System) EffectiveTier(t spec.StageTier) spec.StageTier {
	if t == spec.TierBurstBuffer && s.burst == nil {
		return spec.TierSharedFS
	}
	return t
}

// pendingXfer is one in-flight coalescable transfer: its UID (the causal
// reference joiners record) and the waiters riding it.
type pendingXfer struct {
	uid     string
	waiters []waiter
}

// waiter is one coalesced completion callback: fn(arg) fires when the
// transfer it rides completes.
type waiter struct {
	fn  func(any)
	arg any
}

// nextUID numbers a transfer at API-call time: "xfer." and the sequence
// number zero-padded to six digits, the bytes of fmt's "xfer.%06d". Bytes
// already written to s.uids never move, so each UID is a substring of the
// chunk it was written to; a chunk without room for the longest UID is
// left to the UIDs taken from it and a new one started.
func (s *System) nextUID() string {
	if s.uids.Cap()-s.uids.Len() < len("xfer.")+20 {
		s.uids.Reset()
		s.uids.Grow(chunk * len("xfer.000000"))
	}
	from := s.uids.Len()
	spec.WriteSeqUID(&s.uids, "xfer.", s.uidSeq)
	s.uidSeq++
	return s.uids.String()[from:]
}

// JoinPending registers fn(arg) to fire when an already in-flight stage-in
// of the dataset to the node completes; it returns that transfer's UID and
// whether such a transfer exists. Joining moves no bytes — callers count it
// as a locality hit.
func (s *System) JoinPending(dataset string, node int, fn func(any), arg any) (string, bool) {
	byNode := s.pendingNode[dataset]
	p, ok := byNode[node]
	if !ok {
		return "", false
	}
	p.waiters = append(p.waiters, waiter{fn, arg})
	byNode[node] = p
	s.coalesced++
	return p.uid, true
}

// EachPending calls fn with every node a stage-in of the dataset is in
// flight to, in no defined order: callers must not depend on it.
func (s *System) EachPending(dataset string, fn func(node int)) {
	for n := range s.pendingNode[dataset] {
		fn(n)
	}
}

// StageToNode pulls a dataset from a shared tier into one node's local
// storage: the flow traverses the source tier's channel and the node's
// NVMe channel, bottlenecked by the more contended of the two. On
// completion the registry records a node-local replica, then fn(arg) and
// any coalesced waiters fire, in that order; fn may be nil. Callers should
// check JoinPending first; a duplicate StageToNode while one is in flight
// would move redundant bytes. It returns the transfer's UID for causal
// references.
func (s *System) StageToNode(task, dataset string, bytes int64, src spec.StageTier, node int, fn func(any), arg any) string {
	srcCh, nv := s.tierChannel(src), s.nodeChannel(node)
	uid := s.nextUID()
	byNode := s.pendingNode[dataset]
	if byNode == nil {
		byNode = make(map[int]pendingXfer)
		s.pendingNode[dataset] = byNode
	}
	byNode[node] = pendingXfer{uid: uid}
	lat := s.tierLatency(src) + s.params.NVMeLatency
	s.startTransfer(s.routeOf(srcCh, nv), lat, flow{
		op: opStageToNode, fn: fn, arg: arg,
		tt: transferInfo{
			uid: uid, dataset: dataset, task: task, bytes: bytes,
			src: srcCh.name, dst: nodeName(node, nv), node: node,
		},
	})
	return uid
}

// WriteFromNode writes a dataset produced on a node out to a tier. The
// flow traverses the node's NVMe channel and, for shared tiers, the tier
// channel. The registry records the dataset at the destination tier and as
// a node-local replica: the produced bytes linger in the node's storage,
// which is what lets a data-aware scheduler run the consumer where the
// producer ran. Then fn(arg) fires; fn may be nil.
func (s *System) WriteFromNode(task, dataset string, bytes int64, node int, dest spec.StageTier, fn func(any), arg any) string {
	nv := s.nodeChannel(node)
	srcName := nodeName(node, nv)
	dstName := srcName
	var dch *Channel
	lat := s.params.NVMeLatency
	if dest != spec.TierNodeLocal {
		dch = s.tierChannel(dest)
		dstName = dch.name
		lat += s.tierLatency(dest)
	}
	uid := s.nextUID()
	s.startTransfer(s.routeOf(nv, dch), lat, flow{
		op: opWriteFromNode, dest: dest, fn: fn, arg: arg,
		tt: transferInfo{
			uid: uid, dataset: dataset, task: task, bytes: bytes,
			src: srcName, dst: dstName, node: node,
		},
	})
	return uid
}

// JoinPendingTier registers fn(arg) to fire when an already in-flight
// transfer of the dataset to the tier completes; it returns that
// transfer's UID and whether such a transfer exists. Joining moves no
// bytes — callers count it as a locality hit.
func (s *System) JoinPendingTier(dataset string, tier spec.StageTier, fn func(any), arg any) (string, bool) {
	byTier := s.pendingTier[dataset]
	eff := s.EffectiveTier(tier)
	p, ok := byTier[eff]
	if !ok {
		return "", false
	}
	p.waiters = append(p.waiters, waiter{fn, arg})
	byTier[eff] = p
	s.coalesced++
	return p.uid, true
}

// TierTransfer moves a dataset between two shared tiers (pre-placement
// staging: parallel FS to burst buffer and back). The registry records the
// dataset at the destination, then fn(arg) and any coalesced waiters fire,
// in that order; fn may be nil. Callers should check JoinPendingTier
// first; a duplicate TierTransfer while one is in flight would move
// redundant bytes. It returns the transfer's UID for causal references.
func (s *System) TierTransfer(task, dataset string, bytes int64, src, dest spec.StageTier, fn func(any), arg any) string {
	srcCh, dstCh := s.tierChannel(src), s.tierChannel(dest)
	eff := s.EffectiveTier(dest)
	uid := s.nextUID()
	byTier := s.pendingTier[dataset]
	if byTier == nil {
		byTier = make(map[spec.StageTier]pendingXfer)
		s.pendingTier[dataset] = byTier
	}
	byTier[eff] = pendingXfer{uid: uid}
	s.startTransfer(s.routeOf(srcCh, dstCh), s.tierLatency(src)+s.tierLatency(dest), flow{
		op: opTierTransfer, dest: dest, fn: fn, arg: arg,
		tt: transferInfo{
			uid: uid, dataset: dataset, task: task, bytes: bytes,
			src: srcCh.name, dst: dstCh.name, node: -1,
		},
	})
	return uid
}

// startTransfer carves a flow from the system's chunk, sets it to f, and
// puts it on route r once the setup latency has passed.
func (s *System) startTransfer(r *route, latency float64, f flow) {
	p := carve(&s.flows)
	*p = f
	p.route = r
	s.eng.AfterCall(sim.Seconds(latency), s.startFn, p)
}

// start joins a flow to the flow machinery once its setup latency has
// passed; startFn is its bound form.
func (s *System) start(arg any) {
	f := arg.(*flow)
	now := s.eng.Now()
	f.tt.start = now
	f.seq = s.seq
	s.seq++
	if f.tt.bytes <= 0 {
		s.finishTransfer(f, now)
		return
	}
	s.advance()
	for _, ch := range f.route.chans {
		if ch.nActive > 0 {
			// Joining an already-busy link: every flow on it slows down.
			s.stalls++
			f.tt.contended = ch.name
			break
		}
	}
	s.join(f)
	s.recompute()
	s.peakFlows = max(s.peakFlows, s.nFlows)
}

// finishTransfer records the trace and completes the flow.
func (s *System) finishTransfer(f *flow, at sim.Time) {
	s.transfers++
	if s.prof != nil {
		tt := profiler.TransferTrace{
			UID:     f.tt.uid,
			Dataset: f.tt.dataset,
			Task:    f.tt.task,
			Bytes:   f.tt.bytes,
			Src:     f.tt.src,
			Dst:     f.tt.dst,
			Node:    f.tt.node,
			Start:   f.tt.start,
			End:     at,
		}
		var wait *profiler.CausalEdge
		if f.tt.contended != "" && at > f.tt.start {
			// The flow shared its bottleneck link from the moment it
			// entered the channels.
			wait = &profiler.CausalEdge{
				Kind: profiler.EdgeContention,
				From: f.tt.start,
				To:   at,
				Ref:  f.tt.contended,
			}
		}
		s.prof.Transfer(tt, wait)
	}
	s.complete(f)
}

// complete runs a finished flow's completion: it records in the registry
// the copy the transfer made, retires its coalescing entry, and fires the
// caller's callback, then the waiters that joined, in join order. A
// callback may start transfers; each joins the flows only after its setup
// latency, in an engine event of its own, so none can reach the flow
// machinery that tick is still updating.
func (s *System) complete(f *flow) {
	tt := &f.tt
	var p pendingXfer
	switch f.op {
	case opStageToNode:
		if s.nodeIndex(tt.node) >= 0 {
			s.reg.RegisterNode(tt.dataset, tt.node)
		}
		byNode := s.pendingNode[tt.dataset]
		p = byNode[tt.node]
		delete(byNode, tt.node)
	case opWriteFromNode:
		if s.nodeIndex(tt.node) >= 0 {
			s.reg.RegisterNode(tt.dataset, tt.node)
		}
		if f.dest != spec.TierNodeLocal {
			s.reg.RegisterTier(tt.dataset, s.EffectiveTier(f.dest))
		}
	case opTierTransfer:
		eff := s.EffectiveTier(f.dest)
		s.reg.RegisterTier(tt.dataset, eff)
		byTier := s.pendingTier[tt.dataset]
		p = byTier[eff]
		delete(byTier, eff)
	}
	if f.fn != nil {
		f.fn(f.arg)
	}
	for _, w := range p.waiters {
		if w.fn != nil {
			w.fn(w.arg)
		}
	}
}

// InFlight returns the number of flows in flight; PeakInFlight the most
// there ever were at once.
func (s *System) InFlight() int     { return s.nFlows }
func (s *System) PeakInFlight() int { return s.peakFlows }

// Registry tracks which nodes and tiers hold which datasets.
type Registry struct {
	entries map[string]*regEntry
	// spare is what is left of the chunk new entries are carved from.
	spare []regEntry
}

type regEntry struct {
	// nodes lists the nodes holding a replica, ascending and without
	// duplicates: lookups binary-search it and NodesHolding returns it as
	// it is. It starts out in node0, so a dataset's first replica costs no
	// allocation.
	nodes  []int
	node0  [1]int
	shared bool
	burst  bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*regEntry)}
}

func (r *Registry) entry(dataset string) *regEntry {
	e, ok := r.entries[dataset]
	if !ok {
		e = carve(&r.spare)
		e.nodes = e.node0[:0]
		r.entries[dataset] = e
	}
	return e
}

// RegisterNode records a node-local replica of the dataset.
func (r *Registry) RegisterNode(dataset string, node int) {
	e := r.entry(dataset)
	if i, ok := slices.BinarySearch(e.nodes, node); !ok {
		e.nodes = slices.Insert(e.nodes, i, node)
	}
}

// RegisterTier records the dataset's presence at a shared tier.
func (r *Registry) RegisterTier(dataset string, tier spec.StageTier) {
	e := r.entry(dataset)
	switch tier {
	case spec.TierSharedFS:
		e.shared = true
	case spec.TierBurstBuffer:
		e.burst = true
	}
}

// drop removes node from the entry's replicas, reporting whether it held
// one.
func (e *regEntry) drop(node int) bool {
	i, ok := slices.BinarySearch(e.nodes, node)
	if ok {
		e.nodes = slices.Delete(e.nodes, i, i+1)
	}
	return ok
}

// EvictNode drops every replica the node holds (the node failed; its local
// storage went with it). Returns the number of replicas dropped. Map
// iteration order is irrelevant: each entry changes on its own, so the
// resulting state is deterministic.
func (r *Registry) EvictNode(node int) int {
	n := 0
	for _, e := range r.entries {
		if e.drop(node) {
			n++
		}
	}
	return n
}

// HasNode reports whether the node holds a replica of the dataset.
func (r *Registry) HasNode(dataset string, node int) bool {
	e, ok := r.entries[dataset]
	if !ok {
		return false
	}
	_, held := slices.BinarySearch(e.nodes, node)
	return held
}

// HasTier reports whether the dataset is present at a shared tier.
func (r *Registry) HasTier(dataset string, tier spec.StageTier) bool {
	e, ok := r.entries[dataset]
	if !ok {
		return false
	}
	switch tier {
	case spec.TierSharedFS:
		return e.shared
	case spec.TierBurstBuffer:
		return e.burst
	default:
		return len(e.nodes) > 0
	}
}

// NodesHolding returns the node IDs with a replica, ascending (the
// deterministic base order for placement preference). The slice is the
// registry's own, valid until the dataset's replicas next change: callers
// read it and must not modify it.
func (r *Registry) NodesHolding(dataset string) []int {
	e, ok := r.entries[dataset]
	if !ok {
		return nil
	}
	return e.nodes[:len(e.nodes):len(e.nodes)]
}
