package data

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// zeroLatencyParams makes transfer math exact for hand-computed cases.
func zeroLatencyParams() model.DataParams {
	return model.DataParams{
		NVMeBandwidth:   5e9,
		SharedFSBase:    1e12, // effectively uncontended
		SharedFSPerNode: 0,
	}
}

func newSystem(t *testing.T, nodes int, p model.DataParams) (*sim.Engine, *System, *profiler.Profiler) {
	t.Helper()
	eng := sim.NewEngine()
	cluster := platform.NewCluster(platform.Frontier(1), nodes)
	prof := profiler.New()
	return eng, NewSystem(eng, cluster.Allocate(nodes), p, prof), prof
}

func TestSingleFlowBottleneck(t *testing.T) {
	eng, sys, prof := newSystem(t, 2, zeroLatencyParams())
	var done sim.Time = -1
	// 10 GB onto node 0: bottleneck is the 5 GB/s NVMe → 2 s.
	sys.StageToNode("t0", "ds", 10e9, spec.TierSharedFS, 0, func(any) { done = eng.Now() }, nil)
	eng.Run()
	if done < 0 {
		t.Fatal("transfer never completed")
	}
	if got := done.Seconds(); math.Abs(got-2.0) > 1e-3 {
		t.Errorf("10GB at 5GB/s took %.6fs, want 2s", got)
	}
	trs := prof.Transfers()
	if len(trs) != 1 || trs[0].Bytes != 10e9 || trs[0].Dst != "nvme:0" {
		t.Fatalf("transfer trace: %+v", trs)
	}
	if !sys.Registry().HasNode("ds", 0) {
		t.Error("registry missing node replica after stage-in")
	}
}

func TestFairShareContention(t *testing.T) {
	eng, sys, _ := newSystem(t, 1, zeroLatencyParams())
	var doneA, doneB sim.Time = -1, -1
	// A: 10 GB at t=0. B: 5 GB at t=0.5s. Both share node 0's 5 GB/s.
	// A alone for 0.5s (2.5 GB), then 2.5 GB/s each: B's 5 GB ends at
	// t=2.5s; A (2.5 GB left) finishes alone at t=3.0s.
	sys.StageToNode("a", "dsA", 10e9, spec.TierSharedFS, 0, func(any) { doneA = eng.Now() }, nil)
	eng.At(sim.Time(500*sim.Millisecond), func() {
		sys.StageToNode("b", "dsB", 5e9, spec.TierSharedFS, 0, func(any) { doneB = eng.Now() }, nil)
	})
	eng.Run()
	if math.Abs(doneB.Seconds()-2.5) > 1e-3 {
		t.Errorf("flow B completed at %.6fs, want 2.5s", doneB.Seconds())
	}
	if math.Abs(doneA.Seconds()-3.0) > 1e-3 {
		t.Errorf("flow A completed at %.6fs, want 3.0s", doneA.Seconds())
	}
}

func TestSharedChannelAggregateContention(t *testing.T) {
	p := zeroLatencyParams()
	p.SharedFSBase = 8e9 // aggregate PFS pipe smaller than 2×NVMe
	eng, sys, _ := newSystem(t, 2, p)
	var ends []sim.Time
	// Two flows to different nodes: NVMe channels are private, but both
	// cross the 8 GB/s shared pipe → 4 GB/s each for 8 GB → 2 s.
	for n := 0; n < 2; n++ {
		sys.StageToNode("t", "ds", 8e9, spec.TierSharedFS, n, func(any) { ends = append(ends, eng.Now()) }, nil)
	}
	eng.Run()
	if len(ends) != 2 {
		t.Fatalf("completed %d flows, want 2", len(ends))
	}
	for _, e := range ends {
		if math.Abs(e.Seconds()-2.0) > 1e-3 {
			t.Errorf("flow completed at %.6fs, want 2.0s (shared-pipe bound)", e.Seconds())
		}
	}
	occ := sys.SharedChannel().MeanOccupancy(0, sim.Time(2*sim.Second))
	if math.Abs(occ-1.0) > 0.01 {
		t.Errorf("shared occupancy = %.3f, want ~1.0 while saturated", occ)
	}
}

func TestZeroByteTransfer(t *testing.T) {
	eng, sys, prof := newSystem(t, 1, zeroLatencyParams())
	fired := false
	sys.StageToNode("t", "empty", 0, spec.TierSharedFS, 0, func(any) { fired = true }, nil)
	eng.Run()
	if !fired {
		t.Fatal("zero-byte transfer never completed")
	}
	if len(prof.Transfers()) != 1 {
		t.Fatalf("want a trace for the zero-byte transfer")
	}
}

func TestBurstBufferFallsBackToShared(t *testing.T) {
	p := zeroLatencyParams() // BurstBufferPerNode zero → tier disabled
	eng, sys, prof := newSystem(t, 1, p)
	if sys.burst != nil {
		t.Fatal("burst channel should be disabled")
	}
	sys.StageToNode("t", "ds", 1e9, spec.TierBurstBuffer, 0, nil, nil)
	eng.Run()
	if got := prof.Transfers()[0].Src; got != "sharedfs" {
		t.Errorf("disabled burst buffer should degrade to sharedfs, got src %q", got)
	}
}

func TestTierTransferRegisters(t *testing.T) {
	p := zeroLatencyParams()
	p.BurstBufferPerNode = 4e9
	p.BurstBufferLatency = 0
	eng, sys, _ := newSystem(t, 2, p)
	sys.TierTransfer("t", "weights", 2e9, spec.TierSharedFS, spec.TierBurstBuffer, nil, nil)
	eng.Run()
	if !sys.Registry().HasTier("weights", spec.TierBurstBuffer) {
		t.Error("tier transfer must register destination presence")
	}
	if sys.Registry().HasNode("weights", 0) {
		t.Error("tier transfer must not create node replicas")
	}
}

// TestCoalescedCompletion: a transfer's completion registers the copy,
// then fires the caller's fn(arg) and every joined waiter's, in join order,
// in one engine event; joiners get the transfer's UID, and once it is done
// nothing is pending any more. Both coalescing transfer kinds behave alike.
func TestCoalescedCompletion(t *testing.T) {
	p := zeroLatencyParams()
	p.BurstBufferPerNode = 4e9
	eng, sys, _ := newSystem(t, 2, p)
	type fired struct {
		arg  string
		at   sim.Time
		held bool
	}
	var log []fired
	node := func(arg any) {
		log = append(log, fired{arg.(string), eng.Now(), sys.Registry().HasNode("ds", 1)})
	}
	tier := func(arg any) {
		log = append(log, fired{arg.(string), eng.Now(), sys.Registry().HasTier("w", spec.TierBurstBuffer)})
	}
	own := sys.StageToNode("t", "ds", 1e9, spec.TierSharedFS, 1, node, "own")
	ownTier := sys.TierTransfer("t", "w", 2e9, spec.TierSharedFS, spec.TierBurstBuffer, tier, "tier own")
	for _, arg := range []string{"join 1", "join 2"} {
		if uid, ok := sys.JoinPending("ds", 1, node, arg); !ok || uid != own {
			t.Fatalf("JoinPending = %q, %v, want %q, true", uid, ok, own)
		}
	}
	if uid, ok := sys.JoinPendingTier("w", spec.TierBurstBuffer, tier, "tier join"); !ok || uid != ownTier {
		t.Fatalf("JoinPendingTier = %q, %v, want %q, true", uid, ok, ownTier)
	}
	if _, ok := sys.JoinPending("ds", 0, node, "other node"); ok {
		t.Fatal("joined a transfer to another node")
	}
	eng.Run()
	var args []string
	for _, f := range log {
		args = append(args, f.arg)
		if !f.held {
			t.Errorf("%s fired before the registry held the copy", f.arg)
		}
	}
	if want := []string{"own", "join 1", "join 2", "tier own", "tier join"}; !reflect.DeepEqual(args, want) {
		t.Fatalf("callbacks fired %v, want %v", args, want)
	}
	if log[0].at != log[2].at || log[3].at != log[4].at {
		t.Errorf("waiters fired at other times than their transfer: %+v", log)
	}
	if _, ok := sys.JoinPending("ds", 1, node, "late"); ok {
		t.Error("a completed stage-in is still pending")
	}
	if _, ok := sys.JoinPendingTier("w", spec.TierBurstBuffer, tier, "late"); ok {
		t.Error("a completed tier transfer is still pending")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.RegisterNode("ds", 3)
	r.RegisterNode("ds", 1)
	r.RegisterNode("other", 2)
	if got := r.NodesHolding("ds"); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("NodesHolding = %v, want sorted [1 3]", got)
	}
	if !r.HasNode("ds", 1) || r.HasNode("ds", 2) {
		t.Error("HasNode wrong")
	}
	if n := r.EvictNode(1); n != 1 || r.HasNode("ds", 1) || !r.HasNode("ds", 3) {
		t.Errorf("EvictNode(1) dropped %d replicas, want only ds's", n)
	}
	if r.HasTier("nope", spec.TierSharedFS) || !r.HasTier("ds", spec.TierNodeLocal) || r.HasTier("ds", spec.TierSharedFS) {
		t.Error("HasTier: want node-local for a dataset on a node, nothing for an unknown one")
	}
}

// TestZeroDialsTakeDefaults: a Params whose data dials are zero (an rp
// user's partly filled Params) stages at the calibrated default bandwidths
// instead of dividing by zero.
func TestZeroDialsTakeDefaults(t *testing.T) {
	def := model.Default().Data
	var ends []sim.Time
	for _, p := range []model.DataParams{{}, {
		NVMeBandwidth: def.NVMeBandwidth, SharedFSBase: def.SharedFSBase, SharedFSPerNode: def.SharedFSPerNode,
	}} {
		eng, sys, _ := newSystem(t, 2, p)
		sys.StageToNode("t", "ds", 10e9, spec.TierSharedFS, 0, func(any) { ends = append(ends, eng.Now()) }, nil)
		eng.Run()
	}
	if len(ends) != 2 || ends[0] != ends[1] || ends[0] <= 0 {
		t.Fatalf("10 GB staged by %v with zero dials and the defaults, want the same positive time", ends)
	}
}

// TestMeanOccupancyClipsAtEnd: a window that ends while the channel is
// busy counts the busy time up to its end only.
func TestMeanOccupancyClipsAtEnd(t *testing.T) {
	p := zeroLatencyParams()
	p.SharedFSBase = 5e9 // the shared FS is the bottleneck: busy for 2 s
	eng, sys, _ := newSystem(t, 2, p)
	sys.StageToNode("t", "ds", 10e9, spec.TierSharedFS, 0, func(any) {}, nil)
	eng.Run()
	if got := sys.SharedChannel().MeanOccupancy(0, sim.Time(sim.Second)); math.Abs(got-1) > 1e-9 {
		t.Fatalf("occupancy over the first second %v, want 1", got)
	}
}

// TestRepeatStageInAllocatesNothing: the coalescing bookkeeping of a
// stage-in costs no allocation once its dataset was staged before. A
// dataset's pending map is kept once made, and it holds each in-flight
// transfer by value.
func TestRepeatStageInAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	cluster := platform.NewCluster(platform.Frontier(1), 1)
	sys := NewSystem(eng, cluster.Allocate(1), zeroLatencyParams(), nil)
	stage := func() {
		sys.StageToNode("t", "ds", 1e9, spec.TierSharedFS, 0, nil, nil)
		eng.Run()
		sys.Registry().EvictNode(0)
	}
	stage()
	if n := testing.AllocsPerRun(200, stage); n != 0 {
		t.Errorf("a repeat stage-in costs %v allocations, want 0", n)
	}
}

// TestRegistryReplicaOrder drives the registry with replicas registered
// and evicted out of order and checks it against a plain set after every
// step: NodesHolding stays strictly ascending and equals the set, and
// HasNode agrees with it.
func TestRegistryReplicaOrder(t *testing.T) {
	const nodes = 16
	datasets := []string{"a", "b", "c"}
	r := NewRegistry()
	want := map[string]map[int]bool{}
	for _, ds := range datasets {
		want[ds] = map[int]bool{}
	}
	rnd := rand.New(rand.NewSource(3))
	for step := 0; step < 2000; step++ {
		ds, node := datasets[rnd.Intn(len(datasets))], rnd.Intn(nodes)
		switch op := rnd.Intn(10); {
		case op < 6:
			r.RegisterNode(ds, node)
			want[ds][node] = true
		case op < 9:
			if e, ok := r.entries[ds]; ok {
				e.drop(node)
			}
			delete(want[ds], node)
		default:
			dropped := 0
			for _, held := range want {
				if held[node] {
					delete(held, node)
					dropped++
				}
			}
			if got := r.EvictNode(node); got != dropped {
				t.Fatalf("step %d: EvictNode(%d) = %d, want %d", step, node, got, dropped)
			}
		}
		for _, ds := range datasets {
			held := r.NodesHolding(ds)
			if !slices.IsSorted(held) || len(slices.Compact(slices.Clone(held))) != len(held) {
				t.Fatalf("step %d: NodesHolding(%s) = %v, not strictly ascending", step, ds, held)
			}
			if len(held) != len(want[ds]) {
				t.Fatalf("step %d: NodesHolding(%s) = %v, want %d nodes", step, ds, held, len(want[ds]))
			}
			for n := 0; n < nodes; n++ {
				if r.HasNode(ds, n) != want[ds][n] {
					t.Fatalf("step %d: HasNode(%s, %d) = %v", step, ds, n, r.HasNode(ds, n))
				}
			}
		}
	}
}

// TestTransferDeterminism: the same schedule of transfers produces
// bit-identical traces across runs.
func TestTransferDeterminism(t *testing.T) {
	run := func() []profiler.TransferTrace {
		p := model.Default().Data
		eng, sys, prof := newSystem(t, 4, p)
		for i := 0; i < 16; i++ {
			n := i % 4
			at := sim.Time(i) * sim.Time(100*sim.Millisecond)
			sz := int64(1+i%5) * 500 * MB
			i := i
			eng.At(at, func() {
				sys.StageToNode("t", nameOf(i%3), sz, spec.TierSharedFS, n, nil, nil)
			})
		}
		eng.Run()
		return prof.Transfers()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("transfer traces diverge across identical runs:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no transfers recorded")
	}
}

func nameOf(i int) string { return string(rune('a' + i)) }

// TestCompletionRestagesSameDataset: a transfer's completion runs inside
// tick's loop over the flows that finished, before shares are recomputed.
// Two stage-ins of one dataset finish in the same tick; the first one's
// callback stages the dataset again, to its own node and to a third, and
// joins the second, still pending in that tick. Every transfer and every
// callback must complete exactly once, with its bytes counted once, with
// and without setup latency.
func TestCompletionRestagesSameDataset(t *testing.T) {
	for _, p := range []model.DataParams{zeroLatencyParams(), model.Default().Data} {
		eng, sys, prof := newSystem(t, 3, p)
		fired := map[string]int{}
		note := func(arg any) { fired[arg.(string)]++ }
		var joined bool
		first := func(arg any) {
			note(arg)
			sys.StageToNode("r0", "ds", 1e9, spec.TierSharedFS, 0, note, "again to 0")
			sys.StageToNode("r2", "ds", 0, spec.TierSharedFS, 2, note, "empty to 2")
			_, joined = sys.JoinPending("ds", 1, note, "joined 1")
		}
		sys.StageToNode("a", "ds", 1e9, spec.TierSharedFS, 0, first, "to 0")
		sys.StageToNode("b", "ds", 1e9, spec.TierSharedFS, 1, note, "to 1")
		eng.Run()
		if !joined {
			t.Fatal("the second stage-in was no longer pending when the first completed")
		}
		for _, k := range []string{"to 0", "to 1", "again to 0", "empty to 2", "joined 1"} {
			if fired[k] != 1 {
				t.Errorf("callback %q fired %d times", k, fired[k])
			}
		}
		if n := len(prof.Transfers()); n != 4 || sys.Transfers() != 4 {
			t.Errorf("%d transfer traces, %d transfers; want 4", n, sys.Transfers())
		}
		if sys.BytesMoved() != 3e9 || sys.InFlight() != 0 {
			t.Errorf("moved %d bytes with %d flows in flight; want 3e9 and 0", sys.BytesMoved(), sys.InFlight())
		}
		for n := range 3 {
			if !sys.Registry().HasNode("ds", n) {
				t.Errorf("node %d holds no replica", n)
			}
		}
	}
}
