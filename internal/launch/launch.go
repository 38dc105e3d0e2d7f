// Package launch is the task runtime lifecycle the RP agent drives: the
// request contract, the shared slot-placement machinery, and the one
// Launcher type every backend (srun, Flux, Dragon, PRRTE) runs on. A
// backend package only supplies its cost model — dispatch rate, launch and
// hop latencies, bootstrap cost — through the Launcher's Config hooks.
package launch

import (
	"fmt"
	"slices"
	"time"

	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// Events receives a request's lifecycle callbacks. The agent implements it
// on one per-dispatch record, so a dispatch allocates no callback closures.
type Events interface {
	// OnStart fires when the task process begins executing.
	OnStart(at sim.Time)
	// OnComplete fires when the task finishes; failed marks
	// infrastructure failures (the task may be retried by the agent).
	OnComplete(at sim.Time, failed bool, reason string)
}

// Request is one task launch handed to a backend. It carries the launch
// through the backend's pipeline, execution and completion: it is the
// argument of every pooled pipeline event, and it holds its placement, so
// a task's trip through a launcher allocates nothing beyond the request (a
// multi-node placement's node list is carved from the placer's chunk).
//
// A launcher places a request at most once: a retry is a new request. A
// single-node placement keeps its node ID inside the request (Pl.NodeIDs
// points into it), so a request must never be copied by value once
// placed.
type Request struct {
	// UID identifies the task.
	UID string
	// TD is the task description (resources, duration, kind).
	TD *spec.TaskDescription
	// Events receives the start/complete callbacks; every request handed
	// to a launcher must set it. Direct Placer calls may leave it nil.
	Events Events
	// Body, when set, replaces the fixed TD.Duration sleep as the task's
	// process body: the launcher calls it with the request when the
	// process starts, and the task completes when the body calls end(r).
	// end is the launcher's own, bound once, so a body that reaches its
	// state through the request (the agent's staged body reaches its
	// record through Events) allocates nothing to start or end. end takes
	// effect once, even if a buggy body calls it repeatedly, and always in
	// an engine event of its own, exactly like the sleep path, so a body
	// cannot perturb event ordering by ending synchronously. Tasks whose
	// wall time is not known at launch — staged tasks, service replicas
	// that run until stopped, and coupled tasks that block on inference
	// responses mid-run — use it; plain tasks leave it nil.
	Body func(r *Request, end func(*Request))
	// Prefer, when set, returns node IDs the placer should try first for
	// the request, in order — the agent's data-aware scheduler returns the
	// nodes holding (or currently receiving) the task's input datasets.
	// It is a function, not a slice, because placement can happen long
	// after submission (backend queues): the preference must reflect the
	// registry at placement time, not at dispatch time. It takes the
	// request, so one function bound once serves every request. The
	// placer reads the returned slice only during the placement call that
	// asked for it and never keeps it, so Prefer may return storage it
	// reuses.
	Prefer func(r *Request) []int
	// Trace, when set, receives causal edges for the queue wait between
	// backend arrival and placement. Nil (direct Placer tests, service
	// replicas without task traces) disables emission.
	Trace *profiler.TaskTrace
	// EnqueuedAt is when the request entered the backend queue (set by
	// Enqueue); negative until then.
	EnqueuedAt sim.Time
	// Denied records that the placer considered the request and found no
	// capacity at least once — the difference between plain FIFO queueing
	// and placement starvation in the blame taxonomy.
	Denied bool
	// gen is the boot generation of the launcher that placed the request
	// (Launcher.Next stamps it), so a request placed before a crash stays
	// dropped after a restart.
	gen int32
	// Pl is the placement the placer claimed for the request. The agent's
	// data movers and fault-aware bodies read its nodes to direct
	// node-local staging and straggler stretch.
	Pl platform.Placement
	// Release, when set, frees the srun ceiling slot the request's process
	// holds (srun tasks); the launcher invokes it once, when the request
	// leaves, and clears it. The srun launcher sets one func bound per
	// controller, so the field costs no allocation.
	Release func()
	// runIdx is the request's slot in its launcher's running list while
	// it runs, and -1 once it has stopped.
	runIdx int
}

// Enqueue stamps the request's arrival in a backend queue. Backends call it
// immediately before Queue.Push so the subsequent placement can attribute
// the wait. Re-enqueues (retries) reset the starvation marker.
func (r *Request) Enqueue(at sim.Time) {
	r.EnqueuedAt = at
	r.Denied = false
}

// Stats captures backend counters for analytics.
type Stats struct {
	Submitted uint64
	Started   uint64
	Completed uint64
	Failed    uint64
	QueueLen  int
}

// PlacerStats captures the shared placement machinery's counters: how
// often placement was attempted, how the watermark cache and the affinity
// and backfill passes short-circuited or reordered the queue.
type PlacerStats struct {
	// Attempts counts placement attempts; Placed the successful ones;
	// ScanFailures the full node scans that found no capacity.
	Attempts     uint64
	Placed       uint64
	ScanFailures uint64
	// WatermarkSkips counts attempts short-circuited by the free-capacity
	// watermark cache (no scan ran at all).
	WatermarkSkips uint64
	// AffinityHits counts requests placed by the data-affinity pass ahead
	// of FCFS order; BackfillHits counts requests placed past a blocked
	// queue head.
	AffinityHits uint64
	BackfillHits uint64
}

// Merge accumulates another backend's counters (session-wide rollups).
func (s *PlacerStats) Merge(o PlacerStats) {
	s.Attempts += o.Attempts
	s.Placed += o.Placed
	s.ScanFailures += o.ScanFailures
	s.WatermarkSkips += o.WatermarkSkips
	s.AffinityHits += o.AffinityHits
	s.BackfillHits += o.BackfillHits
}

// Telemetry bundles one backend's placement counters and queue high-water
// for metric snapshots.
type Telemetry struct {
	Placer         PlacerStats
	QueueHighWater int
}

// Queue is a FIFO of launch requests backed by a growable ring buffer. It
// is the one request queue shared by all four backends: PopAt removes from
// any position (the placer's affinity and backfill passes select past the
// head) by shifting the shorter side of the ring, so head removal — the
// common case — is O(1) instead of the O(n) copy a slice-delete costs.
type Queue struct {
	buf  []*Request // len(buf) is always a power of two
	head int
	n    int
	high int
	// hinted counts queued requests carrying a Prefer hook, so the
	// placer's affinity pass can skip its window scan entirely for
	// locality-blind workloads.
	hinted int
}

// Len returns the number of queued requests.
func (q *Queue) Len() int { return q.n }

// HighWater returns the deepest the queue ever got.
func (q *Queue) HighWater() int { return q.high }

// HintedLen returns how many queued requests carry placement hints.
func (q *Queue) HintedLen() int { return q.hinted }

// Push appends a request to the tail.
func (q *Queue) Push(r *Request) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
	if q.n > q.high {
		q.high = q.n
	}
	if r.Prefer != nil {
		q.hinted++
	}
}

func (q *Queue) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]*Request, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// At returns the i-th request in FIFO order (0 = head).
func (q *Queue) At(i int) *Request {
	if i < 0 || i >= q.n {
		panic(fmt.Sprintf("launch: queue index %d out of range [0,%d)", i, q.n))
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// PopAt removes and returns the i-th request, preserving FIFO order of the
// rest. It shifts whichever side of the ring is shorter; PopAt(0) is O(1).
func (q *Queue) PopAt(i int) *Request {
	r := q.At(i)
	mask := len(q.buf) - 1
	if i < q.n-1-i {
		// Shift the head side forward over the gap.
		for j := i; j > 0; j-- {
			q.buf[(q.head+j)&mask] = q.buf[(q.head+j-1)&mask]
		}
		q.buf[q.head] = nil
		q.head = (q.head + 1) & mask
	} else {
		// Shift the tail side back over the gap.
		for j := i; j < q.n-1; j++ {
			q.buf[(q.head+j)&mask] = q.buf[(q.head+j+1)&mask]
		}
		q.buf[(q.head+q.n-1)&mask] = nil
	}
	q.n--
	if r.Prefer != nil {
		q.hinted--
	}
	return r
}

// TakeAll drains the queue, returning the requests in FIFO order.
func (q *Queue) TakeAll() []*Request {
	if q.n == 0 {
		return nil
	}
	mask := len(q.buf) - 1
	out := make([]*Request, q.n)
	for i := 0; i < q.n; i++ {
		out[i] = q.buf[(q.head+i)&mask]
		q.buf[(q.head+i)&mask] = nil
	}
	q.head = 0
	q.n = 0
	q.hinted = 0
	return out
}

// Placer assigns concrete slots on a partition's nodes. It is shared by all
// backends: Flux uses it inside its scheduler loop, Dragon for implicit
// worker occupancy, and the agent's own scheduler for srun placement.
//
// Single-node requests use a ring cursor (O(1) amortized for uniform
// workloads). Two indexes keep that path off O(nodes) scans: an id→node
// map resolves data-affinity hints in O(1), and a free-capacity watermark
// — recorded when a full scan fails, invalidated by the cluster's capacity
// epoch on any release — short-circuits placement attempts that cannot
// possibly succeed.
//
// Multi-node requests take the first nodes with room for their per-node
// footprint: preferred nodes in listed order, then partition order. Their
// node IDs are carved from a chunk the placer owns, so a placement
// allocates nothing but, amortized, its share of a chunk; a single-node
// placement allocates nothing, since it is written into the request. The
// scan stays short: over the Fig 8 campaign at 1,024 nodes (20 seeds),
// 0.69 calls per task want 7.5 nodes each and visit 85.6 on Flux (78.9 on
// srun), and no scan fails, so a free-capacity index would have little to
// skip.
type Placer struct {
	part   *platform.Allocation
	cursor int
	// byID maps node ID → index in part.Nodes (hint resolution).
	byID map[int]int
	// ids is the chunk multi-node placements' node IDs are carved from:
	// placeMultiNode collects a request's IDs in its unused tail and keeps
	// them, by extending ids over them, only when the placement succeeds.
	// Placements keep their IDs in a chunk after ids moves on to a new one.
	ids []int
	// Watermark cache: when valid (epoch matches), no node in the
	// partition had more than maxFreeCPU free CPU slots or maxFreeGPU
	// free GPU slots at the time of the last failed full scan. Claims
	// since then only shrink capacity, so a request demanding more than
	// either bound cannot fit and skips its scan entirely.
	wmValid    bool
	wmEpoch    uint64
	maxFreeCPU int
	maxFreeGPU int

	// stats are plain counters; backends surface them through
	// Telemetry().
	stats PlacerStats

	// Phase, when set, receives sim.PhasePlacement wall-clock samples for
	// each PopNext scheduling step. Nil costs one branch per call.
	Phase sim.PhaseFunc
}

// NewPlacer returns a placer over the partition.
func NewPlacer(part *platform.Allocation) *Placer {
	p := &Placer{part: part, byID: make(map[int]int, len(part.Nodes))}
	for i, node := range part.Nodes {
		p.byID[node.ID] = i
	}
	return p
}

// Partition returns the underlying allocation.
func (p *Placer) Partition() *platform.Allocation { return p.part }

// Stats returns the placement counters accumulated so far.
func (p *Placer) Stats() PlacerStats { return p.stats }

// cannotFit reports whether the watermark cache proves no node in the
// partition currently has (cores, gpus) free.
func (p *Placer) cannotFit(cores, gpus int) bool {
	if !p.wmValid || p.part.Cluster.Epoch() != p.wmEpoch {
		p.wmValid = false
		return false
	}
	if cores > p.maxFreeCPU || gpus > p.maxFreeGPU {
		p.stats.WatermarkSkips++
		return true
	}
	return false
}

// recordWatermark caches the per-node free-capacity maxima observed during
// a failed full scan, tagged with the current capacity epoch.
func (p *Placer) recordWatermark(maxCPU, maxGPU int) {
	p.wmValid = true
	p.wmEpoch = p.part.Cluster.Epoch()
	p.maxFreeCPU = maxCPU
	p.maxFreeGPU = maxGPU
}

// PlaceRequest finds and claims slots for a launch request, writing them
// into r.Pl, and reports whether it did; false means the partition
// currently lacks capacity (the caller re-tries when slots free). The
// request's preferred nodes (data-aware scheduling hints) are tried in
// listed order before the default policy.
func (p *Placer) PlaceRequest(at sim.Time, r *Request) bool {
	var prefer []int
	if r.Prefer != nil {
		prefer = r.Prefer(r)
	}
	if r.TD.MultiNode() {
		return p.placeMultiNode(at, r.TD, prefer, &r.Pl)
	}
	return p.placeSingleNode(at, r.TD, prefer, &r.Pl)
}

// affinityWindow bounds how far past the queue head the data-aware
// selection pass looks for a task whose preferred nodes have capacity.
const affinityWindow = 128

// NextRequest selects which queued request a backend should place next,
// returning its queue index with its placement claimed into its Pl, or -1
// when nothing can place. Selection runs in three passes:
//
//  1. Affinity (delay scheduling): the first request within the window
//     whose preferred nodes can host it right now wins, even over older
//     queue entries — when a slot frees on a node, the task whose data
//     already sits there takes it.
//  2. FCFS: the head request places by the default policy.
//  3. Backfill: up to backfill requests past a blocked head may place
//     (Flux's bounded backfill; zero keeps strict head-of-line order for
//     srun/Dragon/PRRTE).
//
// Requests without preferences see exactly the legacy FCFS(+backfill)
// behavior, so locality-blind workloads are byte-for-byte unchanged.
func (p *Placer) NextRequest(at sim.Time, queue *Queue, backfill int) int {
	w := affinityWindow
	if w > queue.Len() {
		w = queue.Len()
	}
	if queue.HintedLen() == 0 {
		w = 0 // no hinted request queued: the affinity pass cannot match
	}
	for i := 0; i < w; i++ {
		r := queue.At(i)
		if r.Prefer == nil || r.TD.MultiNode() {
			continue
		}
		if p.cannotFit(r.TD.TotalCores(), r.TD.TotalGPUs()) {
			continue
		}
		prefer := r.Prefer(r)
		if len(prefer) == 0 {
			continue
		}
		// Preferred nodes only: no fallback to the ring policy.
		p.stats.Attempts++
		if p.placePreferred(at, prefer, r.TD.TotalCores(), r.TD.TotalGPUs(), &r.Pl) {
			p.stats.AffinityHits++
			return i
		}
	}
	n := 1 + backfill
	if n > queue.Len() {
		n = queue.Len()
	}
	for i := 0; i < n; i++ {
		r := queue.At(i)
		if p.PlaceRequest(at, r) {
			if i > 0 {
				p.stats.BackfillHits++
			}
			return i
		}
		// The placer looked at this request and found no capacity: from
		// here on its queue wait counts as placement starvation, not
		// plain FIFO delay.
		r.Denied = true
	}
	return -1
}

// PopNext runs NextRequest and removes the selected request from the
// queue, returning it with its placement claimed (nil when nothing can
// place). It is the one-call scheduling step all backends share.
func (p *Placer) PopNext(at sim.Time, queue *Queue, backfill int) *Request {
	var t0 time.Time
	if p.Phase != nil {
		t0 = time.Now()
	}
	idx := p.NextRequest(at, queue, backfill)
	if p.Phase != nil {
		p.Phase(sim.PhasePlacement, time.Since(t0).Nanoseconds())
	}
	if idx < 0 {
		return nil
	}
	r := queue.PopAt(idx)
	// The queue wait just resolved: attribute it. A request the placer
	// denied at least once starved on capacity; one placed on its first
	// consideration merely queued behind earlier work.
	if r.Trace != nil && r.EnqueuedAt >= 0 && at > r.EnqueuedAt {
		kind := profiler.EdgeQueued
		if r.Denied {
			kind = profiler.EdgeStarved
		}
		r.Trace.AddEdge(profiler.CausalEdge{Kind: kind, From: r.EnqueuedAt, To: at})
	}
	return r
}

// placePreferred claims (cores, gpus) into pl on the first hinted node
// that fits, counting it as placed, and reports whether one did. It leaves
// the ring cursor untouched so non-hinted traffic keeps its packing order.
func (p *Placer) placePreferred(at sim.Time, prefer []int, cores, gpus int, pl *platform.Placement) bool {
	for _, id := range prefer {
		node := p.preferredNode(id, cores, gpus)
		if node == nil {
			continue
		}
		pl.SetNode(node.ID, cores, gpus)
		p.claim(at, pl)
		return true
	}
	return false
}

// claim claims a placement the placer found room for, counting it placed.
func (p *Placer) claim(at sim.Time, pl *platform.Placement) {
	if err := p.part.Claim(at, pl); err != nil {
		panic(fmt.Sprintf("launch: claim after fit check failed: %v", err))
	}
	p.stats.Placed++
}

// preferredNode resolves a hinted node ID to a partition node with enough
// free capacity, nil otherwise. Resolution is O(1) through the id index.
func (p *Placer) preferredNode(id, cores, gpus int) *platform.Node {
	i, ok := p.byID[id]
	if !ok {
		return nil
	}
	node := p.part.Nodes[i]
	if node.FreeCPU() >= cores && node.FreeGPU() >= gpus {
		return node
	}
	return nil
}

func (p *Placer) placeSingleNode(at sim.Time, td *spec.TaskDescription, prefer []int, pl *platform.Placement) bool {
	p.stats.Attempts++
	cores := td.TotalCores()
	gpus := td.TotalGPUs()
	if p.cannotFit(cores, gpus) {
		return false
	}
	if p.placePreferred(at, prefer, cores, gpus, pl) {
		return true
	}
	n := len(p.part.Nodes)
	maxCPU, maxGPU := 0, 0
	for i := 0; i < n; i++ {
		node := p.part.Nodes[(p.cursor+i)%n]
		if node.FreeCPU() >= cores && node.FreeGPU() >= gpus {
			p.cursor = (p.cursor + i) % n
			pl.SetNode(node.ID, cores, gpus)
			p.claim(at, pl)
			// Advance past a filled node so the next search does
			// not rescan it first.
			if node.FreeCPU() == 0 {
				p.cursor = (p.cursor + 1) % n
			}
			return true
		}
		if f := node.FreeCPU(); f > maxCPU {
			maxCPU = f
		}
		if f := node.FreeGPU(); f > maxGPU {
			maxGPU = f
		}
	}
	// Full scan failed: remember the capacity maxima so equally-large
	// requests skip the scan until something is released.
	p.stats.ScanFailures++
	p.recordWatermark(maxCPU, maxGPU)
	return false
}

// perNodeFootprint returns the per-node cores/gpus demand of a multi-node
// task: ranks spread evenly across the requested nodes, rounded up, with
// CoresPerRank defaulting to 1 and Ranks defaulting to one per node. It is
// the one place the footprint math lives (Fits and placeMultiNode share
// it).
func perNodeFootprint(td *spec.TaskDescription) (cores, gpus int) {
	want := td.Nodes
	ranks := td.Ranks
	if ranks <= 0 {
		ranks = want
	}
	ranksPerNode := (ranks + want - 1) / want
	cpr := td.CoresPerRank
	if cpr <= 0 {
		cpr = 1
	}
	return ranksPerNode * cpr, ranksPerNode * td.GPUsPerRank
}

func (p *Placer) placeMultiNode(at sim.Time, td *spec.TaskDescription, prefer []int, pl *platform.Placement) bool {
	p.stats.Attempts++
	want := td.Nodes
	spec := p.part.Cluster.Spec
	coresPerNode, gpusPerNode := perNodeFootprint(td)
	if coresPerNode > spec.Slots() || gpusPerNode > spec.GPUs {
		panic(fmt.Sprintf("launch: task %s per-node footprint (%d cores, %d gpus) exceeds node", td.UID, coresPerNode, gpusPerNode))
	}
	if p.cannotFit(coresPerNode, gpusPerNode) {
		return false
	}
	// Collect into the chunk's unused tail, which holds all want IDs
	// without growing.
	if cap(p.ids)-len(p.ids) < want {
		p.ids = make([]int, 0, max(idChunk, want))
	}
	ids := p.ids[len(p.ids):]
	// Preferred nodes first, in listed order, then partition order. A
	// node ID can repeat only through the preference list, so only a
	// hinted request checks the IDs it already took.
	for _, id := range prefer {
		if len(ids) == want {
			break
		}
		if slices.Contains(ids, id) {
			continue
		}
		if node := p.preferredNode(id, coresPerNode, gpusPerNode); node != nil {
			ids = append(ids, node.ID)
		}
	}
	hinted := len(ids)
	for _, node := range p.part.Nodes {
		if len(ids) == want {
			break
		}
		if node.FreeCPU() >= coresPerNode && node.FreeGPU() >= gpusPerNode &&
			(hinted == 0 || !slices.Contains(ids[:hinted], node.ID)) {
			ids = append(ids, node.ID)
		}
	}
	if len(ids) < want {
		p.stats.ScanFailures++
		return false
	}
	p.ids = p.ids[:len(p.ids)+want]
	pl.SetNodes(slices.Clip(ids), coresPerNode, gpusPerNode)
	p.claim(at, pl)
	return true
}

// idChunk is the node-ID capacity of the chunks placeMultiNode carves
// placements from (a wider request gets a chunk of its own width).
const idChunk = 1024

// Fits reports whether the task could ever fit on the partition when it is
// completely idle. Backends fail such tasks immediately instead of queueing
// them forever.
func (p *Placer) Fits(td *spec.TaskDescription) bool {
	sp := p.part.Cluster.Spec
	if td.MultiNode() {
		if td.Nodes > len(p.part.Nodes) {
			return false
		}
		cores, gpus := perNodeFootprint(td)
		return cores <= sp.Slots() && gpus <= sp.GPUs
	}
	return td.TotalCores() <= sp.Slots() && td.TotalGPUs() <= sp.GPUs
}
