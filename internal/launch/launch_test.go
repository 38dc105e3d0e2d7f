package launch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rpgo/internal/platform"
	"rpgo/internal/spec"
)

func newPartition(nodes int) *platform.Allocation {
	c := platform.NewCluster(platform.Frontier(1), nodes)
	return c.Allocate(nodes)
}

// place places a bare task description, with no hints or hooks, and
// returns the request's placement, nil when it did not place.
func place(p *Placer, td *spec.TaskDescription) *platform.Placement {
	r := &Request{TD: td}
	if !p.PlaceRequest(0, r) {
		return nil
	}
	return &r.Pl
}

func TestPlaceSingleCore(t *testing.T) {
	p := NewPlacer(newPartition(2))
	td := &spec.TaskDescription{CoresPerRank: 1, Ranks: 1}
	var placements []*platform.Placement
	for i := 0; i < 112; i++ {
		pl := place(p, td)
		if pl == nil {
			t.Fatalf("placement %d failed with free slots", i)
		}
		placements = append(placements, pl)
	}
	if place(p, td) != nil {
		t.Fatal("placement beyond capacity should fail")
	}
	for _, pl := range placements {
		p.Partition().Release(0, pl)
	}
	if place(p, td) == nil {
		t.Fatal("placement after release should succeed")
	}
}

func TestPlaceGPUTask(t *testing.T) {
	p := NewPlacer(newPartition(1))
	td := &spec.TaskDescription{CoresPerRank: 1, Ranks: 1, GPUsPerRank: 1}
	for i := 0; i < 8; i++ {
		if place(p, td) == nil {
			t.Fatalf("GPU placement %d failed", i)
		}
	}
	if place(p, td) != nil {
		t.Fatal("9th GPU task must not fit on an 8-GPU node")
	}
	// CPU-only tasks still fit.
	if place(p, &spec.TaskDescription{CoresPerRank: 1, Ranks: 1}) == nil {
		t.Fatal("CPU task should fit despite exhausted GPUs")
	}
}

func TestPlaceMultiNode(t *testing.T) {
	p := NewPlacer(newPartition(4))
	td := &spec.TaskDescription{Nodes: 2, Ranks: 16, CoresPerRank: 7}
	pl := place(p, td)
	if pl == nil {
		t.Fatal("2-node placement failed on idle 4-node partition")
	}
	if len(pl.NodeIDs) != 2 || pl.Cores*len(pl.NodeIDs) != 112 {
		t.Fatalf("placement: %+v", pl)
	}
	// Per-node footprint: 8 ranks x 7 cores = 56 = full node.
	if place(p, td) == nil {
		t.Fatal("second 2-node placement should fit (2 nodes left)")
	}
	if place(p, td) != nil {
		t.Fatal("third 2-node placement must fail")
	}
}

func TestPlaceMultiNodeSkipsBusyNodes(t *testing.T) {
	p := NewPlacer(newPartition(3))
	// Occupy node 0 fully via single-node placements.
	big := &spec.TaskDescription{Ranks: 8, CoresPerRank: 7}
	if place(p, big) == nil {
		t.Fatal("setup placement failed")
	}
	td := &spec.TaskDescription{Nodes: 2, Ranks: 16, CoresPerRank: 7}
	pl := place(p, td)
	if pl == nil {
		t.Fatal("2-node placement should use nodes 1 and 2")
	}
	for _, id := range pl.NodeIDs {
		if id == 0 {
			t.Fatal("placement used the busy node")
		}
	}
}

func TestFits(t *testing.T) {
	p := NewPlacer(newPartition(2))
	if !p.Fits(&spec.TaskDescription{Ranks: 56, CoresPerRank: 1}) {
		t.Error("full-node task should fit")
	}
	if p.Fits(&spec.TaskDescription{Ranks: 57, CoresPerRank: 1}) {
		t.Error("57 cores cannot fit a 56-core node")
	}
	if p.Fits(&spec.TaskDescription{Nodes: 3}) {
		t.Error("3-node task cannot fit a 2-node partition")
	}
	if !p.Fits(&spec.TaskDescription{Nodes: 2, Ranks: 2, CoresPerRank: 1}) {
		t.Error("2-node task should fit")
	}
}

// Property: random placement streams never oversubscribe any node and a
// full release cycle restores all capacity.
func TestPlacerNeverOversubscribes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		part := newPartition(3)
		p := NewPlacer(part)
		var live []*platform.Placement
		for i := 0; i < 200; i++ {
			if r.Intn(3) == 0 && len(live) > 0 {
				k := r.Intn(len(live))
				part.Release(0, live[k])
				live = append(live[:k], live[k+1:]...)
				continue
			}
			td := &spec.TaskDescription{
				Ranks:        r.Intn(8) + 1,
				CoresPerRank: r.Intn(7) + 1,
				GPUsPerRank:  r.Intn(2),
			}
			if pl := place(p, td); pl != nil {
				live = append(live, pl)
			}
		}
		for i := 0; i < 3; i++ {
			n := part.Cluster.Node(i)
			if n.FreeCPU() < 0 || n.FreeGPU() < 0 {
				return false
			}
		}
		for _, pl := range live {
			part.Release(0, pl)
		}
		for i := 0; i < 3; i++ {
			n := part.Cluster.Node(i)
			if n.FreeCPU() != 56 || n.FreeGPU() != 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- Ring-buffer request queue ---

func reqNamed(uid string, cores int) *Request {
	return &Request{UID: uid, TD: &spec.TaskDescription{UID: uid, CoresPerRank: cores, Ranks: 1}}
}

func TestQueueFIFOAndPopAt(t *testing.T) {
	var q Queue
	for i := 0; i < 20; i++ {
		q.Push(reqNamed(string(rune('a'+i)), 1))
	}
	if q.Len() != 20 {
		t.Fatalf("len = %d", q.Len())
	}
	// Remove from the middle, head, and tail; FIFO order of the rest
	// must hold.
	if r := q.PopAt(10); r.UID != "k" {
		t.Fatalf("PopAt(10) = %s, want k", r.UID)
	}
	if r := q.PopAt(0); r.UID != "a" {
		t.Fatalf("PopAt(0) = %s, want a", r.UID)
	}
	if r := q.PopAt(q.Len() - 1); r.UID != "t" {
		t.Fatalf("PopAt(last) = %s, want t", r.UID)
	}
	want := "bcdefghijlmnopqrs"
	got := ""
	for q.Len() > 0 {
		got += q.PopAt(0).UID
	}
	if got != want {
		t.Fatalf("drain order %q, want %q", got, want)
	}
}

func TestQueueWrapAround(t *testing.T) {
	var q Queue
	// Force head to wander around the ring.
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			q.Push(reqNamed("x", 1))
		}
		q.PopAt(0)
		q.PopAt(0)
	}
	if q.Len() != 50 {
		t.Fatalf("len = %d, want 50", q.Len())
	}
	out := q.TakeAll()
	if len(out) != 50 || q.Len() != 0 {
		t.Fatalf("TakeAll -> %d, len %d", len(out), q.Len())
	}
}

func TestQueueHintedCount(t *testing.T) {
	var q Queue
	plain := reqNamed("p", 1)
	hinted := reqNamed("h", 1)
	hinted.Prefer = func(*Request) []int { return []int{0} }
	q.Push(plain)
	q.Push(hinted)
	if q.HintedLen() != 1 {
		t.Fatalf("hinted = %d, want 1", q.HintedLen())
	}
	q.PopAt(1)
	if q.HintedLen() != 0 {
		t.Fatalf("hinted after pop = %d, want 0", q.HintedLen())
	}
	q.Push(hinted)
	q.TakeAll()
	if q.HintedLen() != 0 {
		t.Fatalf("hinted after TakeAll = %d, want 0", q.HintedLen())
	}
}

// --- NextRequest selection ordering ---

// fullNodePlacer returns a placer over n one-task-wide nodes: each node
// fits exactly one 56-core task, making head-of-line blocking easy to
// stage.
func selPlacer(n int) *Placer {
	cluster := platform.NewCluster(platform.Frontier(1), n)
	return NewPlacer(cluster.Allocate(n))
}

// TestNextRequestAffinityBeatsHead frees capacity on a hinted node and
// checks the younger hinted request wins over the older unhinted head.
func TestNextRequestAffinityBeatsHead(t *testing.T) {
	p := selPlacer(2)
	// Fill node 0 so only node 1 has room.
	if pl := place(p, &spec.TaskDescription{CoresPerRank: 56, Ranks: 1}); pl == nil {
		t.Fatal("setup placement failed")
	}
	var q Queue
	// Head wants a full node — node 1 could host it, but the hinted
	// request targets node 1 and must win the slot.
	head := reqNamed("head", 56)
	aff := reqNamed("aff", 56)
	aff.Prefer = func(*Request) []int { return []int{1} }
	q.Push(head)
	q.Push(aff)
	idx := p.NextRequest(0, &q, 0)
	if idx != 1 {
		t.Fatalf("NextRequest = %d, want affinity entry 1", idx)
	}
	r := q.PopAt(idx)
	if r.UID != "aff" {
		t.Fatalf("selected %s, want aff", r.UID)
	}
	if r.Pl.NodeIDs[0] != 1 {
		t.Fatalf("affinity request placed on node %d, want 1", r.Pl.NodeIDs[0])
	}
}

// TestNextRequestBackfillBound checks a blocked head lets at most
// `backfill` younger entries through, in order.
func TestNextRequestBackfillBound(t *testing.T) {
	p := selPlacer(1)
	var q Queue
	q.Push(reqNamed("big", 56))   // head: needs the whole node
	q.Push(reqNamed("big2", 56))  // also full-node
	q.Push(reqNamed("small", 8))  // would fit alongside nothing — node empty, fits
	q.Push(reqNamed("small2", 8)) // beyond the backfill window
	// Claim 8 cores so the full-node heads are blocked but smalls fit.
	if pl := place(p, &spec.TaskDescription{CoresPerRank: 8, Ranks: 1}); pl == nil {
		t.Fatal("setup placement failed")
	}
	// backfill 0: strict head-of-line, nothing places.
	if idx := p.NextRequest(0, &q, 0); idx >= 0 {
		t.Fatalf("backfill=0 placed entry %d", idx)
	}
	// backfill 1: window covers big2 only — still blocked.
	if idx := p.NextRequest(0, &q, 1); idx >= 0 {
		t.Fatalf("backfill=1 placed entry %d", idx)
	}
	// backfill 2: small (entry 2) may jump.
	if idx := p.NextRequest(0, &q, 2); idx != 2 {
		t.Fatalf("backfill=2: got %d, want entry 2", idx)
	}
}

// TestNextRequestHintlessMatchesFCFS drives the same request stream
// through NextRequest and a plain FCFS head-pop and requires identical
// placement decisions (the byte-identical legacy path).
func TestNextRequestHintlessMatchesFCFS(t *testing.T) {
	build := func() []*Request {
		var reqs []*Request
		sizes := []int{8, 56, 16, 56, 28, 8, 56, 4, 32, 56, 16, 8}
		for i, c := range sizes {
			reqs = append(reqs, reqNamed(fmt.Sprintf("t%02d.%d", i, c), c))
		}
		return reqs
	}
	// Reference: strict FCFS with head-of-line blocking.
	ref := selPlacer(2)
	var refOrder []string
	{
		reqs := build()
		head := 0
		for head < len(reqs) {
			r := reqs[head]
			if !ref.PlaceRequest(0, r) {
				break
			}
			refOrder = append(refOrder, r.UID+"@"+itoa(r.Pl.NodeIDs[0]))
			head++
		}
	}
	// NextRequest with zero backfill over the shared queue.
	p := selPlacer(2)
	var q Queue
	for _, r := range build() {
		q.Push(r)
	}
	var got []string
	for q.Len() > 0 {
		r := p.PopNext(0, &q, 0)
		if r == nil {
			break
		}
		got = append(got, r.UID+"@"+itoa(r.Pl.NodeIDs[0]))
	}
	if len(got) != len(refOrder) {
		t.Fatalf("placed %d, FCFS reference placed %d", len(got), len(refOrder))
	}
	for i := range got {
		if got[i] != refOrder[i] {
			t.Fatalf("decision %d: %s, FCFS reference %s", i, got[i], refOrder[i])
		}
	}
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

// --- Capacity watermark cache ---

// TestWatermarkInvalidatedByRelease fills the partition, observes the
// fast-fail, then releases and requires placement to succeed again.
func TestWatermarkInvalidatedByRelease(t *testing.T) {
	p := selPlacer(2)
	td := &spec.TaskDescription{CoresPerRank: 56, Ranks: 1}
	pl1 := place(p, td)
	pl2 := place(p, td)
	if pl1 == nil || pl2 == nil {
		t.Fatal("setup placements failed")
	}
	if pl := place(p, td); pl != nil {
		t.Fatal("placement on full partition succeeded")
	}
	// Second attempt exercises the cached fast path.
	if pl := place(p, td); pl != nil {
		t.Fatal("cached fast path placed on full partition")
	}
	p.Partition().Release(0, pl1)
	pl3 := place(p, td)
	if pl3 == nil {
		t.Fatal("placement after release failed: watermark not invalidated")
	}
	if pl3.NodeIDs[0] != pl1.NodeIDs[0] {
		t.Fatalf("placed on node %d, want freed node %d", pl3.NodeIDs[0], pl1.NodeIDs[0])
	}
}

// --- Per-node footprint helper ---

// TestPerNodeFootprintRounding covers the ranks/cores/gpus rounding edge
// cases shared by Fits and placeMultiNode.
func TestPerNodeFootprintRounding(t *testing.T) {
	cases := []struct {
		name  string
		td    spec.TaskDescription
		cores int
		gpus  int
	}{
		{"even split", spec.TaskDescription{Nodes: 4, Ranks: 8, CoresPerRank: 2, GPUsPerRank: 1}, 4, 2},
		{"uneven ranks round up", spec.TaskDescription{Nodes: 4, Ranks: 9, CoresPerRank: 2, GPUsPerRank: 1}, 6, 3},
		{"ranks default to nodes", spec.TaskDescription{Nodes: 3, CoresPerRank: 4}, 4, 0},
		{"cores default to one", spec.TaskDescription{Nodes: 2, Ranks: 5}, 3, 0},
		{"fewer ranks than nodes", spec.TaskDescription{Nodes: 4, Ranks: 2, CoresPerRank: 7, GPUsPerRank: 2}, 7, 2},
		{"gpu heavy", spec.TaskDescription{Nodes: 2, Ranks: 3, CoresPerRank: 1, GPUsPerRank: 4}, 2, 8},
	}
	for _, c := range cases {
		cores, gpus := perNodeFootprint(&c.td)
		if cores != c.cores || gpus != c.gpus {
			t.Errorf("%s: footprint = (%d, %d), want (%d, %d)", c.name, cores, gpus, c.cores, c.gpus)
		}
	}
	// Fits must agree with the helper on the rounded footprint.
	p := selPlacer(4)
	td := &spec.TaskDescription{Nodes: 4, Ranks: 9, CoresPerRank: 19, GPUsPerRank: 0}
	// 3 ranks/node × 19 cores = 57 > 56 slots.
	if p.Fits(td) {
		t.Fatal("Fits accepted a footprint exceeding node slots")
	}
	td.CoresPerRank = 18 // 54 ≤ 56
	if !p.Fits(td) {
		t.Fatal("Fits rejected a valid rounded footprint")
	}
}

// --- Multi-node placement against its map-based reference ---

// fig8Footprints are the four multi-node task shapes of the Fig 8
// IMPECCABLE campaign: docking, surrogate training, scoring and ESMACS.
var fig8Footprints = []spec.TaskDescription{
	{Nodes: 4, Ranks: 32, CoresPerRank: 7},
	{Nodes: 4, Ranks: 32, CoresPerRank: 4, GPUsPerRank: 1},
	{Nodes: 8, Ranks: 64, CoresPerRank: 7},
	{Nodes: 24, Ranks: 192, CoresPerRank: 7, GPUsPerRank: 1},
}

// placeWorld is one side of the differential check: a partition of n
// nodes cut from the middle of a cluster of n+4, so node IDs 0, 1, n+2
// and n+3 exist but lie outside it, with its placer and live placements.
type placeWorld struct {
	part *platform.Allocation
	plc  *Placer
	live []*platform.Placement
}

func newPlaceWorld(n int, occupancy []byte) *placeWorld {
	part := platform.NewCluster(platform.Frontier(1), n+4).Allocate(n+4).Slice(2, n)
	w := &placeWorld{part: part, plc: NewPlacer(part)}
	// An odd byte occupies its node: the next six bits claim cores (at
	// most all 56), the top bit four GPUs.
	for i, node := range part.Nodes {
		if i >= len(occupancy) || occupancy[i]&1 == 0 {
			continue
		}
		b := int(occupancy[i])
		pl := &platform.Placement{NodeIDs: []int{node.ID}, Cores: min(b>>1&63, 56), GPUs: b >> 7 * 4}
		if err := part.Claim(0, pl); err != nil {
			panic(err)
		}
	}
	return w
}

// checkSameCapacity fails unless every node of both clusters, inside the
// partitions or not, has the same free CPU and GPU slots.
func checkSameCapacity(t *testing.T, got, want *placeWorld) {
	t.Helper()
	for id := 0; id < len(got.part.Nodes)+4; id++ {
		g, w := got.part.Cluster.Node(id), want.part.Cluster.Node(id)
		if g.FreeCPU() != w.FreeCPU() || g.FreeGPU() != w.FreeGPU() {
			t.Fatalf("node %d free (%d cpu, %d gpu), reference (%d, %d)",
				id, g.FreeCPU(), g.FreeGPU(), w.FreeCPU(), w.FreeGPU())
		}
	}
}

// checkSamePlacement fails unless both placements are nil or claim the
// same slots on the same nodes in the same order.
func checkSamePlacement(t *testing.T, what string, got, want *platform.Placement) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: placed %v, reference placed %v", what, got != nil, want != nil)
	}
	if got != nil && !(slices.Equal(got.NodeIDs, want.NodeIDs) && got.Cores == want.Cores && got.GPUs == want.GPUs) {
		t.Fatalf("%s: placement %v × (%d, %d), reference %v × (%d, %d)", what,
			got.NodeIDs, got.Cores, got.GPUs, want.NodeIDs, want.Cores, want.GPUs)
	}
}

// placedBy runs one placer method into a fresh placement, nil when it did
// not place.
func placedBy(place func(pl *platform.Placement) bool) *platform.Placement {
	pl := new(platform.Placement)
	if !place(pl) {
		return nil
	}
	return pl
}

// checkMultiNodeMatchesReference runs one script of placements and
// releases on two identical partitions, placing multi-node requests with
// placeMultiNode on one and refPlaceMultiNode on the other, and compares
// every placement, the placer counters and every node's free capacity.
//
// The script is read an op at a time. Its first byte picks the op by its
// value mod 4:
//   - 0, 1: a multi-node request. The next byte a picks one of the four
//     Fig 8 footprints when even, and otherwise draws Nodes, Ranks,
//     CoresPerRank and GPUsPerRank from a and the byte after it. The byte
//     after that sets the preference list's length (mod 8), and that many
//     bytes follow, each a node ID from -1 to n+6: outside the partition
//     and the cluster, repeated, or on nodes that do not fit.
//   - 2: a single-node request of 1 + a mod 56 cores and a>>6 GPUs,
//     placed the same way on both sides; it moves the watermark cache.
//   - 3: the release of live placement a mod len(live) on both sides,
//     which first checks it still matches the reference's.
func checkMultiNodeMatchesReference(t *testing.T, size uint8, occupancy, script []byte) {
	n := 1 + int(size)%40
	got, want := newPlaceWorld(n, occupancy), newPlaceWorld(n, occupancy)
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	for op := 0; len(script) > 0; op++ {
		what := fmt.Sprintf("op %d", op)
		switch kind, a := next()%4, next(); kind {
		case 0, 1:
			var td spec.TaskDescription
			if a%2 == 0 {
				td = fig8Footprints[a>>1%len(fig8Footprints)]
			} else {
				b := next()
				td = spec.TaskDescription{Nodes: 2 + a>>1%6, Ranks: b % 32, CoresPerRank: b >> 5, GPUsPerRank: a >> 6}
				if cores, gpus := perNodeFootprint(&td); cores > 56 || gpus > 8 {
					continue // both sides panic on a footprint no node can hold
				}
			}
			prefer := make([]int, next()%8)
			for i := range prefer {
				prefer[i] = next()%(n+8) - 1
			}
			g := placedBy(func(pl *platform.Placement) bool { return got.plc.placeMultiNode(0, &td, prefer, pl) })
			w := refPlaceMultiNode(want.plc, 0, &td, prefer)
			checkSamePlacement(t, what, g, w)
			if g != nil {
				got.live = append(got.live, g)
				want.live = append(want.live, w)
			}
		case 2:
			td := &spec.TaskDescription{Ranks: 1, CoresPerRank: 1 + a%56, GPUsPerRank: a >> 6}
			g := placedBy(func(pl *platform.Placement) bool { return got.plc.placeSingleNode(0, td, nil, pl) })
			w := placedBy(func(pl *platform.Placement) bool { return want.plc.placeSingleNode(0, td, nil, pl) })
			checkSamePlacement(t, what, g, w)
			if g != nil {
				got.live = append(got.live, g)
				want.live = append(want.live, w)
			}
		case 3:
			if len(got.live) == 0 {
				continue
			}
			k := a % len(got.live)
			checkSamePlacement(t, what+" (release)", got.live[k], want.live[k])
			got.part.Release(0, got.live[k])
			want.part.Release(0, want.live[k])
			got.live = slices.Delete(got.live, k, k+1)
			want.live = slices.Delete(want.live, k, k+1)
		}
		if gs, ws := got.plc.Stats(), want.plc.Stats(); gs != ws {
			t.Fatalf("%s: placer stats %+v, reference %+v", what, gs, ws)
		}
		checkSameCapacity(t, got, want)
	}
	for k := range got.live {
		checkSamePlacement(t, "final release", got.live[k], want.live[k])
	}
}

func FuzzPlaceMultiNodeMatchesReference(f *testing.F) {
	// Each Fig 8 footprint on an idle 32-node partition, then again with
	// hints: repeated IDs, IDs outside the partition and the cluster.
	f.Add(uint8(31), []byte{}, []byte{0, 0, 0, 0, 2, 0, 0, 4, 0, 0, 6, 0})
	f.Add(uint8(31), []byte{}, []byte{0, 6, 5, 9, 9, 40, 0, 39, 1})
	// Partly occupied nodes, so some hints do not fit, with releases.
	f.Add(uint8(11), []byte{1, 0, 255, 0, 3, 0, 129, 0, 0, 0, 0, 0},
		[]byte{1, 0, 4, 2, 5, 2, 0, 0, 3, 0, 1, 1, 3, 7, 3, 5, 1, 0, 0})
	// A full partition: the watermark skips, then a release reopens it.
	f.Add(uint8(7), []byte{}, []byte{0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0})
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 32; i++ {
		occupancy := make([]byte, r.Intn(48))
		r.Read(occupancy)
		script := make([]byte, 4*(2+r.Intn(40)))
		r.Read(script)
		f.Add(uint8(r.Intn(256)), occupancy, script)
	}
	f.Fuzz(checkMultiNodeMatchesReference)
}

// TestPlaceMultiNodeAllocs pins the allocation cost of a successful
// multi-node placement: none, amortized, since its node IDs are carved
// from the placer's chunk and the placement itself lives in the request.
func TestPlaceMultiNodeAllocs(t *testing.T) {
	p := NewPlacer(newPartition(64))
	for _, td := range fig8Footprints {
		r := &Request{TD: &td}
		allocs := testing.AllocsPerRun(100, func() {
			if !p.PlaceRequest(0, r) {
				t.Fatalf("%d-node placement failed on an idle partition", td.Nodes)
			}
			p.Partition().Release(0, &r.Pl)
		})
		if allocs != 0 {
			t.Errorf("%d-node placement: %.2f allocs, want 0 amortized", td.Nodes, allocs)
		}
	}
}

// TestGuardsPanicNamingTheMisuse: reading past the queue, and placing a
// multi-node task whose per-node share exceeds a node (which Fits turns
// away at submit), panic naming the misuse.
func TestGuardsPanicNamingTheMisuse(t *testing.T) {
	var q Queue
	p := NewPlacer(newPartition(2))
	wide := &spec.TaskDescription{UID: "wide", Nodes: 2, CoresPerRank: 1, Ranks: 200}
	if p.Fits(wide) {
		t.Fatal("Fits accepts 100 cores per 56-core node")
	}
	for _, c := range []struct {
		fn   func()
		want string
	}{
		{func() { q.At(0) }, "launch: queue index 0 out of range [0,0)"},
		{func() { place(p, wide) }, "launch: task wide per-node footprint (100 cores, 0 gpus) exceeds node"},
	} {
		msg := func() (msg any) {
			defer func() { msg = recover() }()
			c.fn()
			return nil
		}()
		if msg != c.want {
			t.Errorf("panic %v, want %q", msg, c.want)
		}
	}
}
