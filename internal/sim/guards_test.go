package sim

import (
	"fmt"
	"testing"
)

// panicMessage runs fn and returns what it panicked with, "" if it
// returned.
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestGuardsPanicWithTheirMessage: every guard on the engines and their
// primitives panics naming the misuse. Each case builds its own engine, so
// a panic mid-run leaves nothing behind.
func TestGuardsPanicWithTheirMessage(t *testing.T) {
	sharded := func(parts int, look Duration) *ShardedEngine {
		return NewShardedEngine(ShardedConfig{Partitions: parts, Lookahead: look})
	}
	cases := []struct {
		fn   func()
		want string
	}{
		{func() { NewEngine().AtCall(0, nil, nil) }, "sim: AtCall with nil callback"},
		{func() {
			e := NewEngine()
			e.Immediately(func() { e.Run() })
			e.Run()
		}, "sim: Run called reentrantly"},
		{func() {
			e := NewEngine()
			e.Immediately(func() { e.RunUntil(Time(Second)) })
			e.Run()
		}, "sim: RunUntil called reentrantly"},
		{func() { NewSemaphore(NewEngine(), -1) }, "sim: negative semaphore capacity"},
		{func() { NewSemaphore(NewEngine(), 1).Release(0) }, "sim: Release of non-positive units"},
		{func() { NewServer[int](NewEngine(), 0, func(int) Duration { return 0 }, nil) },
			"sim: Server needs at least one server"},
		{func() { NewServer[int](NewEngine(), 1, nil, nil) }, "sim: Server needs a service function"},
		{func() { sharded(0, Millisecond) }, "sim: sharded engine needs at least one partition"},
		{func() { sharded(2, 0) }, "sim: sharded engine needs a positive lookahead"},
		{func() { sharded(2, Millisecond).Send(0, 1, Millisecond, nil, nil) }, "sim: Send with nil callback"},
		{func() {
			se := sharded(2, Millisecond)
			se.Engine(0).Immediately(func() { se.Run() })
			se.Run()
		}, "sim: ShardedEngine.Run called reentrantly"},
	}
	for _, c := range cases {
		if got := panicMessage(c.fn); got != c.want {
			t.Errorf("panic %q, want %q", got, c.want)
		}
	}
	if got := PhaseName(NumPhases); got != "unknown" {
		t.Errorf("PhaseName(NumPhases) = %q, want unknown", got)
	}
}

// TestRunHooks: Engine.Run reports its dispatch time through Phase once; a
// sharded engine running several partitions on one worker reports each
// window's dispatch and beats once per window; and a one-partition engine
// run twice counts the simulated time between its runs as advanced.
func TestRunHooks(t *testing.T) {
	e := NewEngine()
	var phases []int
	e.Phase = func(phase int, _ int64) { phases = append(phases, phase) }
	e.After(Second, func() {})
	e.Run()
	if len(phases) != 1 || phases[0] != PhaseDispatch {
		t.Fatalf("Engine.Run phases %v, want one dispatch sample", phases)
	}

	se := NewShardedEngine(ShardedConfig{Partitions: 2, Shards: 1, Lookahead: Millisecond})
	dispatches, beats := 0, 0
	se.Phase = func(phase int, _ int64) {
		if phase == PhaseDispatch {
			dispatches++
		}
	}
	se.Heartbeat = func() { beats++ }
	for i := 0; i < 3; i++ {
		se.Engine(0).At(Time(i)*Time(Second), func() {
			se.Send(0, 1, Millisecond, func(any) {}, nil)
		})
	}
	se.Run()
	if w := int(se.Windows()); w == 0 || dispatches != w || beats != w {
		t.Fatalf("%d windows, %d dispatch samples, %d beats; want one of each per window", w, dispatches, beats)
	}

	one := NewShardedEngine(ShardedConfig{Partitions: 1, Lookahead: Millisecond})
	one.Engine(0).At(Time(Second), func() {})
	one.Run()
	one.Engine(0).At(Time(3*Second), func() {})
	one.Run()
	if got := one.SimAdvanced(); got != 2*Second {
		t.Fatalf("advanced %v over two runs 2 s apart, want 2s", got)
	}
}
