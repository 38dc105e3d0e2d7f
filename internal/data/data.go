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
	"sort"
	"strconv"

	"rpgo/internal/model"
	"rpgo/internal/obs"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// Byte-size helpers for workload builders and tests.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

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
	// startFn and tickFn are start and tick bound once, so scheduling
	// them allocates nothing.
	startFn func(any)
	tickFn  func()

	// pendingNode coalesces concurrent stage-ins of the same dataset to
	// the same node: the first request transfers, later ones join as
	// waiters — one copy moves no matter how many tasks want it.
	// pendingTier does the same for tier-to-tier transfers.
	pendingNode map[string]map[int]*pendingXfer
	pendingTier map[string]map[spec.StageTier]*pendingXfer

	hits       int
	misses     int
	bytesMoved int64

	// Cached telemetry instruments (nil-safe dummies when no registry is
	// attached) so the hot paths never branch on instrumentation.
	cTransfers *obs.Counter
	cCoalesced *obs.Counter
	cStalls    *obs.Counter
	cBytes     *obs.Counter
	gFlows     *obs.Gauge
}

// NewSystem builds the storage model over the allocation's nodes. Zero or
// negative bandwidth dials fall back to the calibrated defaults so a
// partially filled Params cannot divide by zero.
func NewSystem(eng *sim.Engine, alloc *platform.Allocation, p model.DataParams, prof *profiler.Profiler, tel *obs.Registry) *System {
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
		pendingNode: make(map[string]map[int]*pendingXfer),
		pendingTier: make(map[string]map[spec.StageTier]*pendingXfer),
		cTransfers:  tel.Counter("data.transfers"),
		cCoalesced:  tel.Counter("data.coalesced_joins"),
		cStalls:     tel.Counter("data.contention_stalls"),
		cBytes:      tel.Counter("data.bytes_moved"),
		gFlows:      tel.Gauge("data.active_flows"),
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
	i := id - s.firstNode
	if i < 0 || i >= s.nodes {
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

// BurstChannel returns the burst-buffer channel, nil when disabled.
func (s *System) BurstChannel() *Channel { return s.burst }

// BytesMoved returns the total bytes transferred so far.
func (s *System) BytesMoved() int64 { return s.bytesMoved }

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
func (s *System) Seed(dataset string, bytes int64, tier spec.StageTier) {
	s.reg.RegisterTier(dataset, bytes, s.effectiveTier(tier))
}

func (s *System) effectiveTier(t spec.StageTier) spec.StageTier {
	if t == spec.TierBurstBuffer && s.burst == nil {
		return spec.TierSharedFS
	}
	return t
}

// pendingXfer is one in-flight coalescable transfer: its UID (the causal
// reference joiners record) and the waiters riding it.
type pendingXfer struct {
	uid     string
	waiters []func()
}

// nextUID numbers a transfer at API-call time: "xfer." and the sequence
// number zero-padded to six digits, the bytes of fmt's "xfer.%06d".
func (s *System) nextUID() string {
	var digits, buf [32]byte
	d := strconv.AppendUint(digits[:0], s.uidSeq, 10)
	b := append(buf[:0], "xfer."...)
	for i := len(d); i < 6; i++ {
		b = append(b, '0')
	}
	s.uidSeq++
	return string(append(b, d...))
}

// JoinPending registers fn to fire when an already in-flight stage-in of
// the dataset to the node completes; it returns that transfer's UID and
// whether such a transfer exists. Joining moves no bytes — callers count it
// as a locality hit.
func (s *System) JoinPending(dataset string, node int, fn func()) (string, bool) {
	byNode, ok := s.pendingNode[dataset]
	if !ok {
		return "", false
	}
	p, ok := byNode[node]
	if !ok {
		return "", false
	}
	p.waiters = append(p.waiters, fn)
	s.cCoalesced.Inc()
	return p.uid, true
}

// PendingNodes returns the nodes a stage-in of the dataset is currently
// in flight to, sorted ascending.
func (s *System) PendingNodes(dataset string) []int {
	byNode, ok := s.pendingNode[dataset]
	if !ok {
		return nil
	}
	out := make([]int, 0, len(byNode))
	for n := range byNode {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// StageToNode pulls a dataset from a shared tier into one node's local
// storage: the flow traverses the source tier's channel and the node's
// NVMe channel, bottlenecked by the more contended of the two. On
// completion the registry records a node-local replica and any coalesced
// waiters fire. Callers should check JoinPending first; a duplicate
// StageToNode while one is in flight would move redundant bytes. It returns
// the transfer's UID for causal references.
func (s *System) StageToNode(task, dataset string, bytes int64, src spec.StageTier, node int, done func()) string {
	srcCh, nv := s.tierChannel(src), s.nodeChannel(node)
	uid := s.nextUID()
	if s.pendingNode[dataset] == nil {
		s.pendingNode[dataset] = make(map[int]*pendingXfer)
	}
	s.pendingNode[dataset][node] = &pendingXfer{uid: uid}
	lat := s.tierLatency(src) + s.params.NVMeLatency
	s.startTransfer(s.routeOf(srcCh, nv), lat, transferInfo{
		uid: uid, dataset: dataset, task: task, bytes: bytes,
		src: srcCh.name, dst: nodeName(node, nv), node: node,
	}, func() {
		if nv != nil {
			s.reg.RegisterNode(dataset, bytes, node)
		}
		p := s.pendingNode[dataset][node]
		delete(s.pendingNode[dataset], node)
		if len(s.pendingNode[dataset]) == 0 {
			delete(s.pendingNode, dataset)
		}
		done()
		for _, fn := range p.waiters {
			fn()
		}
	})
	return uid
}

// WriteFromNode writes a dataset produced on a node out to a tier. The
// flow traverses the node's NVMe channel and, for shared tiers, the tier
// channel. The registry records the dataset at the destination tier and as
// a node-local replica: the produced bytes linger in the node's storage,
// which is what lets a data-aware scheduler run the consumer where the
// producer ran.
func (s *System) WriteFromNode(task, dataset string, bytes int64, node int, dest spec.StageTier, done func()) string {
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
	s.startTransfer(s.routeOf(nv, dch), lat, transferInfo{
		uid: uid, dataset: dataset, task: task, bytes: bytes,
		src: srcName, dst: dstName, node: node,
	}, func() {
		if nv != nil {
			s.reg.RegisterNode(dataset, bytes, node)
		}
		if dest != spec.TierNodeLocal {
			s.reg.RegisterTier(dataset, bytes, s.effectiveTier(dest))
		}
		done()
	})
	return uid
}

// JoinPendingTier registers fn to fire when an already in-flight transfer
// of the dataset to the tier completes; it returns that transfer's UID and
// whether such a transfer exists. Joining moves no bytes — callers count it
// as a locality hit.
func (s *System) JoinPendingTier(dataset string, tier spec.StageTier, fn func()) (string, bool) {
	byTier, ok := s.pendingTier[dataset]
	if !ok {
		return "", false
	}
	eff := s.effectiveTier(tier)
	p, ok := byTier[eff]
	if !ok {
		return "", false
	}
	p.waiters = append(p.waiters, fn)
	s.cCoalesced.Inc()
	return p.uid, true
}

// TierTransfer moves a dataset between two shared tiers (pre-placement
// staging: parallel FS to burst buffer and back). The registry records the
// dataset at the destination and coalesced waiters fire. Callers should
// check JoinPendingTier first; a duplicate TierTransfer while one is in
// flight would move redundant bytes. It returns the transfer's UID for
// causal references.
func (s *System) TierTransfer(task, dataset string, bytes int64, src, dest spec.StageTier, done func()) string {
	srcCh, dstCh := s.tierChannel(src), s.tierChannel(dest)
	eff := s.effectiveTier(dest)
	uid := s.nextUID()
	if s.pendingTier[dataset] == nil {
		s.pendingTier[dataset] = make(map[spec.StageTier]*pendingXfer)
	}
	s.pendingTier[dataset][eff] = &pendingXfer{uid: uid}
	s.startTransfer(s.routeOf(srcCh, dstCh), s.tierLatency(src)+s.tierLatency(dest), transferInfo{
		uid: uid, dataset: dataset, task: task, bytes: bytes,
		src: srcCh.name, dst: dstCh.name, node: -1,
	}, func() {
		s.reg.RegisterTier(dataset, bytes, eff)
		p := s.pendingTier[dataset][eff]
		delete(s.pendingTier[dataset], eff)
		if len(s.pendingTier[dataset]) == 0 {
			delete(s.pendingTier, dataset)
		}
		done()
		for _, fn := range p.waiters {
			fn()
		}
	})
	return uid
}

// startTransfer applies setup latency, then starts the flow on route r.
func (s *System) startTransfer(r *route, latency float64, tt transferInfo, done func()) {
	s.eng.AfterCall(sim.Seconds(latency), s.startFn, &flow{route: r, tt: tt, done: done})
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
			s.cStalls.Inc()
			f.tt.contended = ch.name
			break
		}
	}
	s.join(f)
	s.recompute()
	s.gFlows.Set(now, float64(s.nFlows))
}

// finishTransfer records the trace and hands the completion to the engine.
func (s *System) finishTransfer(f *flow, at sim.Time) {
	s.cTransfers.Inc()
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
		if f.tt.contended != "" && at > f.tt.start {
			// The flow shared its bottleneck link from the moment it
			// entered the channels.
			tt.AddEdge(profiler.CausalEdge{
				Kind: profiler.EdgeContention,
				From: f.tt.start,
				To:   at,
				Ref:  f.tt.contended,
			})
		}
		s.prof.Transfer(tt)
	}
	if f.done != nil {
		s.eng.Immediately(f.done)
	}
}

// InFlight returns the number of active transfers (tests).
func (s *System) InFlight() int { return s.nFlows }

// Registry tracks which nodes and tiers hold which datasets.
type Registry struct {
	entries map[string]*regEntry
}

type regEntry struct {
	bytes  int64
	nodes  map[int]bool
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
		e = &regEntry{nodes: make(map[int]bool)}
		r.entries[dataset] = e
	}
	return e
}

// RegisterNode records a node-local replica of the dataset.
func (r *Registry) RegisterNode(dataset string, bytes int64, node int) {
	e := r.entry(dataset)
	if bytes > e.bytes {
		e.bytes = bytes
	}
	e.nodes[node] = true
}

// RegisterTier records the dataset's presence at a shared tier.
func (r *Registry) RegisterTier(dataset string, bytes int64, tier spec.StageTier) {
	e := r.entry(dataset)
	if bytes > e.bytes {
		e.bytes = bytes
	}
	switch tier {
	case spec.TierSharedFS:
		e.shared = true
	case spec.TierBurstBuffer:
		e.burst = true
	}
}

// Evict drops a node-local replica (node draining, cache pressure models).
func (r *Registry) Evict(dataset string, node int) {
	if e, ok := r.entries[dataset]; ok {
		delete(e.nodes, node)
	}
}

// EvictNode drops every replica the node holds (the node failed; its local
// storage went with it). Returns the number of replicas dropped. Map
// iteration order is irrelevant: only deletions happen, so the resulting
// state is deterministic.
func (r *Registry) EvictNode(node int) int {
	n := 0
	for _, e := range r.entries {
		if e.nodes[node] {
			delete(e.nodes, node)
			n++
		}
	}
	return n
}

// HasNode reports whether the node holds a replica of the dataset.
func (r *Registry) HasNode(dataset string, node int) bool {
	e, ok := r.entries[dataset]
	return ok && e.nodes[node]
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

// NodesHolding returns the node IDs with a replica, sorted ascending (the
// deterministic base order for placement preference).
func (r *Registry) NodesHolding(dataset string) []int {
	e, ok := r.entries[dataset]
	if !ok {
		return nil
	}
	out := make([]int, 0, len(e.nodes))
	for n := range e.nodes {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Bytes returns the registered size of the dataset.
func (r *Registry) Bytes(dataset string) int64 {
	if e, ok := r.entries[dataset]; ok {
		return e.bytes
	}
	return 0
}

// Replicas returns the total node-replica count across all datasets.
func (r *Registry) Replicas() int {
	n := 0
	for _, e := range r.entries {
		n += len(e.nodes)
	}
	return n
}
