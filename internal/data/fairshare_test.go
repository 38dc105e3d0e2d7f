package data

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// transferAPI is the transfer surface System and refSystem share.
type transferAPI interface {
	StageToNode(task, dataset string, bytes int64, src spec.StageTier, node int, fn func(any), arg any) string
	WriteFromNode(task, dataset string, bytes int64, node int, dest spec.StageTier, fn func(any), arg any) string
	TierTransfer(task, dataset string, bytes int64, src, dest spec.StageTier, fn func(any), arg any) string
}

// xferOp is one transfer request of a differential schedule.
type xferOp struct {
	kind     int          // 0 StageToNode, 1 WriteFromNode, 2 TierTransfer
	gap      sim.Duration // issue this long after the previous timed op
	after    int          // ≥0: issue when op `after` completes instead
	node     int
	bytes    int64
	src, dst spec.StageTier
}

var diffTiers = [...]spec.StageTier{spec.TierSharedFS, spec.TierBurstBuffer, spec.TierNodeLocal}

// Differential schedules run on cluster nodes 0..diffClusterNodes-1 with
// the allocation holding diffAllocNodes of them from diffAllocFirst, so
// node IDs fall inside, below and above it.
const (
	diffClusterNodes = 8
	diffAllocFirst   = 2
	diffAllocNodes   = 4
)

// decodeOps turns five bytes per op into a transfer schedule: kind and
// tiers, timing (a quarter of the ops share the previous op's microsecond,
// some chain off an earlier op's completion), node, and size (zero when
// the size byte is zero).
func decodeOps(script []byte) []xferOp {
	var ops []xferOp
	for len(script) >= 5 && len(ops) < 96 {
		b := script[:5]
		script = script[5:]
		i := len(ops)
		op := xferOp{
			kind:  int(b[0]) % 3,
			src:   diffTiers[int(b[0]/3)%3],
			dst:   diffTiers[int(b[0]/9)%3],
			after: -1,
			node:  int(b[2]) % diffClusterNodes,
			bytes: int64(b[3])*8*MB + int64(b[4])*4099,
		}
		if b[3] == 0 {
			op.bytes = 0
		}
		switch {
		case b[1] < 64:
			// same microsecond as the previous timed op
		case b[1] >= 224 && i > 0:
			op.after = i - 1 - int(b[1]-224)%i
		default:
			op.gap = sim.Duration(b[1]-64) * 500 * sim.Microsecond
		}
		ops = append(ops, op)
	}
	return ops
}

// runSchedule issues ops against api on eng and runs the engine dry. It
// returns the completion log: each transfer's UID and completion time, in
// the order the completions fired.
func runSchedule(eng *sim.Engine, api transferAPI, ops []xferOp) []string {
	next := make([][]int, len(ops))
	for i, op := range ops {
		if op.after >= 0 {
			next[op.after] = append(next[op.after], i)
		}
	}
	var log []string
	uids := make([]string, len(ops))
	var issue func(i int)
	// done is every op's completion callback, bound once; its argument is
	// the op's index.
	done := func(arg any) {
		i := arg.(int)
		log = append(log, fmt.Sprintf("%s@%d", uids[i], eng.Now()))
		for _, j := range next[i] {
			issue(j)
		}
	}
	issue = func(i int) {
		op := ops[i]
		// One dataset per op: callers must not start a second coalescable
		// transfer of a dataset while one is in flight.
		task, ds := fmt.Sprintf("t%d", i), fmt.Sprintf("ds%d", i)
		switch op.kind {
		case 0:
			uids[i] = api.StageToNode(task, ds, op.bytes, op.src, op.node, done, i)
		case 1:
			uids[i] = api.WriteFromNode(task, ds, op.bytes, op.node, op.dst, done, i)
		default:
			uids[i] = api.TierTransfer(task, ds, op.bytes, op.src, op.dst, done, i)
		}
	}
	at := sim.Time(0)
	for i, op := range ops {
		if op.after >= 0 {
			continue
		}
		at = at.Add(op.gap)
		eng.At(at, func() { issue(i) })
	}
	eng.Run()
	return log
}

// checkMatchesReference runs one schedule on the route model and on the
// per-flow reference and requires identical transfer traces and
// completion order, and occupancies that agree to rounding while never
// exceeding 1. It returns the completion log.
func checkMatchesReference(t *testing.T, burst bool, ops []xferOp) []string {
	t.Helper()
	p := model.Default().Data
	if !burst {
		p.BurstBufferPerNode = 0
	}
	alloc := func() *platform.Allocation {
		c := platform.NewCluster(platform.Frontier(1), diffClusterNodes)
		return c.Allocate(diffClusterNodes).Slice(diffAllocFirst, diffAllocNodes)
	}

	eng, prof := sim.NewEngine(), profiler.New()
	sys := NewSystem(eng, alloc(), p, prof)
	got := runSchedule(eng, sys, ops)

	refEng, refProf := sim.NewEngine(), profiler.New()
	ref := newRefSystem(refEng, alloc(), p, refProf)
	want := runSchedule(refEng, ref, ops)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("completion order differs from the per-flow reference:\n got %v\nwant %v", got, want)
	}
	if g, w := prof.Transfers(), refProf.Transfers(); !reflect.DeepEqual(g, w) {
		t.Fatalf("transfer traces differ from the per-flow reference:\n got %+v\nwant %+v", g, w)
	}
	if sys.InFlight() != 0 {
		t.Fatalf("%d flows still in flight after the run", sys.InFlight())
	}
	end := eng.Now()
	for _, rc := range ref.channels {
		ch := channelNamed(sys, rc.name)
		if ch == nil {
			if len(rc.samples) != 0 {
				t.Fatalf("channel %s carried traffic in the reference but was never built", rc.name)
			}
			continue
		}
		if ch.nActive != 0 {
			t.Errorf("%s still counts %d active flows", ch.name, ch.nActive)
		}
		for _, s := range ch.samples {
			if s.v > 1 {
				t.Fatalf("%s occupancy %v > 1 at %v", ch.name, s.v, s.t)
			}
		}
		if g, w := ch.MeanOccupancy(0, end), rc.MeanOccupancy(0, end); math.Abs(g-w) > 1e-9 {
			t.Errorf("%s mean occupancy %v, reference %v", ch.name, g, w)
		}
	}
	return got
}

// channelNamed finds a built channel by name, nil if there is none.
func channelNamed(s *System, name string) *Channel {
	for _, ch := range s.channels {
		if ch.name == name {
			return ch
		}
	}
	return nil
}

// FuzzFairShareMatchesReference drives the route model and the per-flow
// reference with the same transfer schedule: all three transfer kinds,
// sizes including zero, nodes inside and outside the allocation, the
// burst buffer on and off, and several starts in the same microsecond.
// The seed corpus runs under plain go test.
func FuzzFairShareMatchesReference(f *testing.F) {
	// Eleven equal stage-ins to one node in one microsecond.
	eleven := make([]byte, 0, 55)
	for i := 0; i < 11; i++ {
		eleven = append(eleven, 0, 0, diffAllocFirst, 125, 0)
	}
	f.Add(false, eleven)
	f.Add(true, eleven)
	// A write-out from outside the allocation to its own node: no channels.
	f.Add(false, []byte{2*9 + 1, 0, 0, 40, 1, 1, 0, 7, 0, 0})
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 48; i++ {
		script := make([]byte, 5*(4+rng.IntN(60)))
		for j := range script {
			script[j] = byte(rng.UintN(256))
		}
		f.Add(i%2 == 0, script)
	}
	f.Fuzz(func(t *testing.T, burst bool, script []byte) {
		checkMatchesReference(t, burst, decodeOps(script))
	})
}

// TestFairShareEdgeCases pins two boundaries random schedules rarely hit,
// against both the reference and hand-computed completion times.
func TestFairShareEdgeCases(t *testing.T) {
	tierOp := func(src, dst spec.StageTier, bytes int64) xferOp {
		return xferOp{kind: 2, after: -1, src: src, dst: dst, bytes: bytes}
	}
	stageOp := func(node int, bytes int64) xferOp {
		return xferOp{kind: 0, after: -1, src: spec.TierSharedFS, node: node, bytes: bytes}
	}
	for _, tc := range []struct {
		name  string
		burst bool
		ops   []xferOp
		want  []string
	}{{
		// PFS→BB and BB→PFS are two routes over the same two channels, so
		// every flow gets a third of the 16 GB/s burst buffer. The 1 GiB
		// flows, seq 1 on the second route and seq 2 on the first, finish
		// on one tick, in start order.
		name:  "same-tick finishes across routes complete in start order",
		burst: true,
		ops: []xferOp{
			tierOp(spec.TierSharedFS, spec.TierBurstBuffer, 4*GB),
			tierOp(spec.TierBurstBuffer, spec.TierSharedFS, GB),
			tierOp(spec.TierSharedFS, spec.TierBurstBuffer, GB),
		},
		want: []string{"xfer.000001@212327", "xfer.000002@212327", "xfer.000000@413653"},
	}, {
		// Both run alone on their NVMe at 5 GB/s. When the 1 GB flow ends
		// at 0.2 s the other has exactly rate·1µs = 5000 bytes left, which
		// counts as done on the same tick.
		name: "a flow rate·1µs from empty finishes on this tick",
		ops:  []xferOp{stageOp(diffAllocFirst, 1e9+5000), stageOp(diffAllocFirst+1, 1e9)},
		want: []string{"xfer.000000@210200", "xfer.000001@210200"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkMatchesReference(t, tc.burst, tc.ops); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("completions %v, want %v", got, tc.want)
			}
		})
	}
}

// TestOccupancyNeverExceedsCapacity: eleven equal flows on one 5 GB/s NVMe
// channel each get capacity/11, and added flow by flow those shares round
// to more than the capacity. The recorded occupancy must stay within 1.
func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	eng, sys, _ := newSystem(t, 1, zeroLatencyParams())
	for i := 0; i < 11; i++ {
		sys.StageToNode("t", fmt.Sprintf("ds%d", i), 1e9, spec.TierSharedFS, 0, nil, nil)
	}
	eng.Run()
	ch := channelNamed(sys, "nvme:0")
	if ch == nil || len(ch.samples) == 0 {
		t.Fatal("no occupancy recorded on nvme:0")
	}
	for _, s := range ch.samples {
		if s.v > 1 {
			t.Errorf("occupancy sample %v at %v exceeds capacity", s.v, s.t)
		}
	}
	if occ := ch.MeanOccupancy(0, eng.Now()); occ > 1 {
		t.Errorf("MeanOccupancy = %v, exceeds capacity", occ)
	}
}

// TestUnusedNodesBuildNoChannel: NVMe channels exist only for nodes that
// moved data, and nodes outside the allocation never get one.
func TestUnusedNodesBuildNoChannel(t *testing.T) {
	eng, sys, prof := newSystem(t, 4, zeroLatencyParams())
	if len(sys.channels) != 1 {
		t.Fatalf("fresh system built %d channels, want only sharedfs", len(sys.channels))
	}
	sys.StageToNode("t", "a", 1e9, spec.TierSharedFS, 2, nil, nil)
	sys.WriteFromNode("t", "b", 1e9, 9, spec.TierNodeLocal, nil, nil)
	eng.Run()
	var names []string
	for _, ch := range sys.channels {
		names = append(names, ch.name)
	}
	if !reflect.DeepEqual(names, []string{"sharedfs", "nvme:2"}) {
		t.Errorf("channels = %v, want [sharedfs nvme:2]", names)
	}
	// The write crosses no channel, so it completes first, a microsecond in.
	trs := prof.Transfers()
	if len(trs) != 2 || trs[0].UID != "xfer.000001" || trs[0].Src != "nvme:9" || trs[0].Dst != "nvme:9" {
		t.Errorf("transfer traces: %+v", trs)
	}
	if sys.Registry().HasNode("b", 9) {
		t.Error("a node outside the allocation must not hold a replica")
	}
}

func TestNextUIDMatchesFormat(t *testing.T) {
	s := &System{}
	for _, seq := range []uint64{0, 7, 999999, 1000000, 123456789, math.MaxUint64} {
		s.uidSeq = seq
		if got, want := s.nextUID(), fmt.Sprintf("xfer.%06d", seq); got != want {
			t.Errorf("nextUID(%d) = %q, want %q", seq, got, want)
		}
	}
	// Consecutive draws across the ends of chunks, across 999,999 →
	// 1,000,000 where the UIDs widen, and across the wrap of the largest
	// sequence number; every UID drawn still reads the same once later
	// ones are written.
	var drawn, want []string
	for _, from := range []uint64{0, 999999 - chunk - 5, math.MaxUint64 - 2} {
		s.uidSeq = from
		for i := uint64(0); i < 2*chunk+3; i++ {
			drawn = append(drawn, s.nextUID())
			want = append(want, fmt.Sprintf("xfer.%06d", from+i))
		}
	}
	if !reflect.DeepEqual(drawn, want) {
		t.Errorf("consecutive draws = %v, want %v", drawn, want)
	}
}

// BenchmarkFairShare keeps n flows in flight over 8 nodes, half
// stage-ins and half write-outs, replacing each as it completes until 2n
// have run. It reports the cost per flow event (a start or a finish).
// Every flow moves 1 GiB, so each joins its route behind the others; with
// mixed sizes the flows cycle through 256 MiB to 4 GiB, so most join
// inside their route.
func BenchmarkFairShare(b *testing.B) {
	for _, mixed := range []bool{false, true} {
		for _, n := range []int{56, 448, 3584} {
			name := fmt.Sprintf("flows=%d", n)
			if mixed {
				name += ",mixed"
			}
			b.Run(name, func(b *testing.B) {
				datasets := make([]string, 2*n)
				for i := range datasets {
					datasets[i] = fmt.Sprintf("ds%d", i)
				}
				engs := make([]*sim.Engine, b.N)
				systems := make([]*System, b.N)
				for i := range systems {
					engs[i] = sim.NewEngine()
					alloc := platform.NewCluster(platform.Frontier(1), 8).Allocate(8)
					systems[i] = NewSystem(engs[i], alloc, model.Default().Data, nil)
				}
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				b.ResetTimer()
				for i, sys := range systems {
					runFairShareLoad(engs[i], sys, datasets, mixed)
				}
				b.StopTimer()
				runtime.ReadMemStats(&m1)
				events := float64(b.N) * float64(2*len(datasets))
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
				b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/events, "allocs/event")
			})
		}
	}
}

// runFairShareLoad starts half of the datasets' transfers a microsecond
// apart and replaces each completed one until all have been issued.
func runFairShareLoad(eng *sim.Engine, sys *System, datasets []string, mixed bool) {
	issued := 0
	var start func()
	var done func(any)
	start = func() {
		ds, node, size := datasets[issued], issued%8, GB
		if mixed {
			size = GB / 4 << (issued % 5)
		}
		if issued/8%2 == 0 {
			sys.StageToNode("t", ds, size, spec.TierSharedFS, node, done, nil)
		} else {
			sys.WriteFromNode("t", ds, size, node, spec.TierSharedFS, done, nil)
		}
		issued++
	}
	done = func(any) {
		if issued < len(datasets) {
			start()
		}
	}
	for i := 0; i < len(datasets)/2; i++ {
		eng.At(sim.Time(i), start)
	}
	eng.Run()
}
