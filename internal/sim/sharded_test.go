package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// shardedLog is a per-partition event log for determinism comparisons.
// Each partition appends only from its own events, so the logs are
// mapping-invariant by construction.
type shardedLog struct {
	lines [][]string
}

func (l *shardedLog) add(part int, at Time, what string) {
	l.lines[part] = append(l.lines[part], fmt.Sprintf("%d@%v:%s", part, at, what))
}

// runPingPongMesh builds P partitions that bounce messages around a ring
// with per-hop work events, runs it on the given shard count, and returns
// the merged per-partition logs.
func runPingPongMesh(t *testing.T, parts, shards int, rounds int) [][]string {
	t.Helper()
	la := 10 * Millisecond
	se := NewShardedEngine(ShardedConfig{Partitions: parts, Shards: shards, Lookahead: la})
	log := &shardedLog{lines: make([][]string, parts)}

	var hop func(part int) func(any)
	hops := make([]func(any), parts)
	hop = func(part int) func(any) {
		return func(arg any) {
			n := arg.(int)
			eng := se.Engine(part)
			log.add(part, eng.Now(), fmt.Sprintf("hop%d", n))
			// Local work inside the window.
			eng.After(Millisecond, func() {
				log.add(part, eng.Now(), "work")
			})
			if n >= rounds {
				return
			}
			next := (part + 1) % parts
			// One propagating hop plus two terminal sends (a longer-delay
			// cross message and a direct same-partition send) so every hop
			// stresses injection ordering without exponential fan-out.
			se.Send(part, next, la, hops[next], n+1)
			se.Send(part, (part+2)%parts, 3*la, hops[(part+2)%parts], rounds+1000)
			se.Send(part, part, la, hops[part], rounds+1001)
		}
	}
	for p := range hops {
		hops[p] = hop(p)
	}
	// Kick off from every partition at staggered times.
	for p := 0; p < parts; p++ {
		se.Engine(p).AtCall(Time(p)*Time(Millisecond), hops[p], 0)
	}
	se.Run()
	return log.lines
}

// TestShardedDeterminismAcrossShardCounts is the core guarantee: the same
// partition layout produces identical per-partition event logs for every
// shard count, including shards=1.
func TestShardedDeterminismAcrossShardCounts(t *testing.T) {
	want := runPingPongMesh(t, 5, 1, 40)
	for _, shards := range []int{2, 3, 5} {
		got := runPingPongMesh(t, 5, shards, 40)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shard count %d changed the event history", shards)
		}
	}
	if len(want[0]) == 0 {
		t.Fatal("mesh ran no events")
	}
}

// TestShardedRunToRunDeterminism re-runs the same multi-shard
// configuration and demands identical logs.
func TestShardedRunToRunDeterminism(t *testing.T) {
	a := runPingPongMesh(t, 4, 4, 60)
	b := runPingPongMesh(t, 4, 4, 60)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical sharded runs diverged")
	}
}

// TestShardedMatchesPlainEngine: one partition, one shard must behave
// exactly like a plain Engine run of the same program.
func TestShardedMatchesPlainEngine(t *testing.T) {
	program := func(eng *Engine) []string {
		var log []string
		var tick func(any)
		tick = func(arg any) {
			n := arg.(int)
			log = append(log, fmt.Sprintf("%v:%d", eng.Now(), n))
			if n < 50 {
				eng.AfterCall(Duration(n%7)*Millisecond, tick, n+1)
				eng.After(500*Microsecond, func() { log = append(log, eng.Now().String()) })
			}
		}
		eng.AtCall(0, tick, 0)
		return log
	}
	plain := NewEngine()
	wantLog := program(plain)
	plain.Run()

	se := NewShardedEngine(ShardedConfig{Partitions: 1, Shards: 1, Lookahead: 2 * Millisecond})
	gotLog := program(se.Engine(0))
	se.Run()

	_ = wantLog
	_ = gotLog
	// The closures captured different slices; re-run to compare contents.
	plain2 := NewEngine()
	log2 := program(plain2)
	plain2.Run()
	if fmt.Sprint(log2) != fmt.Sprint(wantLog) {
		t.Fatal("plain engine is not deterministic")
	}
	if fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
		t.Fatalf("sharded(1,1) diverged from plain engine:\n got %v\nwant %v", gotLog, wantLog)
	}
	if plain.Steps() != se.Steps() {
		t.Fatalf("step counts differ: plain %d sharded %d", plain.Steps(), se.Steps())
	}
}

// TestShardedLookaheadViolation: declaring a cross-partition delay below
// the lookahead must panic immediately.
func TestShardedLookaheadViolation(t *testing.T) {
	se := NewShardedEngine(ShardedConfig{Partitions: 2, Shards: 2, Lookahead: 10 * Millisecond})
	defer func() {
		if recover() == nil {
			t.Fatal("undersized cross-partition delay did not panic")
		}
	}()
	se.Send(0, 1, Millisecond, func(any) {}, nil)
}

// TestShardedQuiescentPartition: a partition with no events must not cost
// windows; the busy partition drives the clock alone.
func TestShardedQuiescentPartition(t *testing.T) {
	se := NewShardedEngine(ShardedConfig{Partitions: 3, Shards: 3, Lookahead: Millisecond})
	ran := 0
	var tick func(any)
	tick = func(any) {
		ran++
		if ran < 100 {
			se.Engine(0).AfterCall(10*Millisecond, tick, nil)
		}
	}
	se.Engine(0).AfterCall(0, tick, nil)
	se.Run()
	if ran != 100 {
		t.Fatalf("ran %d events, want 100", ran)
	}
	// Sparse 10 ms spacing with 1 ms lookahead: one window per event, not
	// one window per millisecond.
	if se.Windows() > 110 {
		t.Fatalf("%d windows for 100 sparse events — idle partitions are not fast-forwarding", se.Windows())
	}
	if se.CrossEvents() != 0 {
		t.Fatalf("unexpected cross events: %d", se.CrossEvents())
	}
}

// TestShardedStatsInvariants: the per-shard window telemetry must account
// for every event, every window, and every cross-partition message.
func TestShardedStatsInvariants(t *testing.T) {
	la := 10 * Millisecond
	se := NewShardedEngine(ShardedConfig{Partitions: 4, Shards: 4, Lookahead: la})
	var hops []func(any)
	hop := func(part int) func(any) {
		return func(arg any) {
			n := arg.(int)
			if n >= 50 {
				return
			}
			se.Engine(part).After(Millisecond, func() {})
			se.Send(part, (part+1)%4, la, hops[(part+1)%4], n+1)
		}
	}
	for p := 0; p < 4; p++ {
		hops = append(hops, hop(p))
	}
	se.Engine(0).AtCall(0, hops[0], 0)
	se.Run()

	stats := se.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("got %d shard stats, want 4", len(stats))
	}
	var events, sent, recv uint64
	for i, st := range stats {
		events += st.Events
		sent += st.Sent
		recv += st.Recv
		if st.Busy+st.Skipped != se.Windows() {
			t.Errorf("shard %d: busy %d + skipped %d != windows %d",
				i, st.Busy, st.Skipped, se.Windows())
		}
	}
	if events != se.Steps() {
		t.Errorf("per-shard events sum to %d, engine stepped %d", events, se.Steps())
	}
	if sent != se.CrossEvents() || recv != se.CrossEvents() {
		t.Errorf("sent/recv %d/%d, want both == cross events %d", sent, recv, se.CrossEvents())
	}
	var byDst uint64
	for _, n := range se.CrossByDst() {
		byDst += n
	}
	if byDst != se.CrossEvents() {
		t.Errorf("CrossByDst sums to %d, want %d", byDst, se.CrossEvents())
	}
	if eff := se.LookaheadEfficiency(); eff < 1 {
		t.Errorf("lookahead efficiency %g < 1 — each barrier advances at least one lookahead", eff)
	}
	if se.SimAdvanced() <= 0 {
		t.Error("SimAdvanced is zero on a multi-window run")
	}
}

// TestShardedStatsInlinePath: one shard over two partitions keeps the same
// telemetry: every window busy, none skipped.
func TestShardedStatsInlinePath(t *testing.T) {
	se := NewShardedEngine(ShardedConfig{Partitions: 2, Shards: 1, Lookahead: Millisecond})
	ran := 0
	var tick func(any)
	tick = func(any) {
		ran++
		if ran < 50 {
			se.Engine(0).AfterCall(5*Millisecond, tick, nil)
		}
	}
	se.Engine(0).AfterCall(0, tick, nil)
	se.Run()
	st := se.ShardStats()
	if len(st) != 1 {
		t.Fatalf("got %d shard stats, want 1", len(st))
	}
	if st[0].Busy != se.Windows() {
		t.Errorf("inline path busy windows %d != windows %d", st[0].Busy, se.Windows())
	}
	if st[0].Skipped != 0 {
		t.Errorf("inline path skipped %d windows, want 0", st[0].Skipped)
	}
	if st[0].Events != se.Steps() {
		t.Errorf("inline path events %d != steps %d", st[0].Events, se.Steps())
	}
	if st[0].BusyNs <= 0 {
		t.Error("inline path measured no busy wall time")
	}
}

// TestShardedPhaseSamples: the window loop must report one dispatch sample
// per window and at least one exchange sample per window end through the
// Phase hook.
func TestShardedPhaseSamples(t *testing.T) {
	se := NewShardedEngine(ShardedConfig{Partitions: 3, Shards: 3, Lookahead: Millisecond})
	counts := make([]uint64, NumPhases)
	se.Phase = func(phase int, ns int64) {
		if ns < 0 {
			t.Errorf("negative phase sample: phase=%d ns=%d", phase, ns)
		}
		counts[phase]++
	}
	var hops []func(any)
	hop := func(part int) func(any) {
		return func(arg any) {
			n := arg.(int)
			if n >= 30 {
				return
			}
			se.Send(part, (part+1)%3, Millisecond, hops[(part+1)%3], n+1)
		}
	}
	for p := 0; p < 3; p++ {
		hops = append(hops, hop(p))
	}
	se.Engine(0).AtCall(0, hops[0], 0)
	se.Run()
	if counts[PhaseDispatch] != se.Windows() {
		t.Errorf("dispatch samples %d, want one per window (%d)", counts[PhaseDispatch], se.Windows())
	}
	if counts[PhaseExchange] < se.Windows() {
		t.Errorf("exchange samples %d, want at least one per barrier (%d)", counts[PhaseExchange], se.Windows())
	}
}

// TestShardedHeartbeatPerWindow: the sharded heartbeat fires exactly once
// per window, after the window ran.
func TestShardedHeartbeatPerWindow(t *testing.T) {
	se := NewShardedEngine(ShardedConfig{Partitions: 2, Shards: 2, Lookahead: Millisecond})
	beats := uint64(0)
	se.Heartbeat = func() { beats++ }
	n := 0
	var tick func(any)
	tick = func(any) {
		n++
		if n < 40 {
			se.Engine(1).AfterCall(3*Millisecond, tick, nil)
		}
	}
	se.Engine(1).AfterCall(0, tick, nil)
	se.Run()
	if beats != se.Windows() {
		t.Errorf("heartbeats %d, want one per window (%d)", beats, se.Windows())
	}
}

// TestShardedOnePartitionRunsAsOneWindow: a one-partition engine runs its
// events in plain-engine order as one busy window, sends one dispatch
// sample, and beats on the first event and every 4,096 events after.
func TestShardedOnePartitionRunsAsOneWindow(t *testing.T) {
	const events = 2*heartbeatEvery + 1
	program := func(eng *Engine) *[]int {
		log := new([]int)
		rec := func(arg any) { *log = append(*log, arg.(int)) }
		// Scrambled times with many ties, so order rests on (time, seq).
		for i := 0; i < events; i++ {
			eng.AtCall(Time(i*7919%1021)*Time(Microsecond), rec, i)
		}
		return log
	}
	plain := NewEngine()
	want := program(plain)
	plain.Run()

	se := NewShardedEngine(ShardedConfig{Partitions: 1, Shards: 1, Lookahead: Millisecond})
	var beats []uint64
	se.Heartbeat = func() { beats = append(beats, se.Steps()) }
	var dispatch, other int
	se.Phase = func(phase int, _ int64) {
		if phase == PhaseDispatch {
			dispatch++
		} else {
			other++
		}
	}
	got := program(se.Engine(0))
	se.Run()

	if len(*got) != events || !reflect.DeepEqual(*got, *want) {
		t.Fatalf("one-partition run diverged from the plain engine (%d of %d events)", len(*got), events)
	}
	if se.Windows() != 1 {
		t.Errorf("windows = %d, want 1", se.Windows())
	}
	st := se.ShardStats()[0]
	if st.Busy != 1 || st.Skipped != 0 || st.Events != events || st.BusyNs <= 0 {
		t.Errorf("shard stats %+v, want 1 busy window of %d events", st, events)
	}
	if dispatch != 1 || other != 0 {
		t.Errorf("phase samples: %d dispatch, %d other; want 1 dispatch only", dispatch, other)
	}
	if want := []uint64{1, heartbeatEvery + 1, 2*heartbeatEvery + 1}; !reflect.DeepEqual(beats, want) {
		t.Errorf("heartbeats on events %v, want %v", beats, want)
	}

	// A run with nothing scheduled counts no window.
	se.Run()
	if se.Windows() != 1 || dispatch != 1 {
		t.Errorf("empty run counted a window: windows=%d dispatch=%d", se.Windows(), dispatch)
	}
}
