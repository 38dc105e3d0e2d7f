package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Errorf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if Seconds(-3) != 0 {
		t.Errorf("negative seconds should clamp to 0, got %v", Seconds(-3))
	}
	if d := (2 * Second).Seconds(); d != 2.0 {
		t.Errorf("(2s).Seconds() = %v", d)
	}
	tm := Time(0).Add(3 * Second)
	if tm.Seconds() != 3.0 {
		t.Errorf("Add: %v", tm)
	}
	if tm.Sub(Time(Second)) != 2*Second {
		t.Errorf("Sub: %v", tm.Sub(Time(Second)))
	}
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Duration{5 * Second, Second, 3 * Second, 2 * Second, 4 * Second} {
		e.After(d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
	if e.Now() != Time(5*Second) {
		t.Fatalf("clock = %v, want 5s", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		e.At(Time(Second), func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.After(Millisecond, rec)
		}
	}
	e.Immediately(rec)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != Time(99*Millisecond) {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestEnginePastEventsClampToNow(t *testing.T) {
	e := NewEngine()
	e.After(Second, func() {
		e.At(0, func() {
			if e.Now() != Time(Second) {
				t.Errorf("past event ran at %v", e.Now())
			}
		})
	})
	e.Run()
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer should return true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should return false")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine()
	tm := e.After(Second, func() {})
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire should return false")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for i := 1; i <= 5; i++ {
		e.At(Time(i)*Time(Second), func() { fired = append(fired, e.Now()) })
	}
	e.RunUntil(Time(3 * Second))
	if len(fired) != 3 {
		t.Fatalf("fired %d events by t=3s, want 3", len(fired))
	}
	if e.Now() != Time(3*Second) {
		t.Fatalf("clock = %v, want 3s", e.Now())
	}
	e.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(Time(10 * Second))
	if e.Now() != Time(10*Second) {
		t.Fatalf("clock = %v, want 10s", e.Now())
	}
}

// live is the number of scheduled, uncancelled events: the slots in use.
func (e *Engine) live() int { return len(e.slots) - len(e.free) }

func TestPendingCount(t *testing.T) {
	e := NewEngine()
	t1 := e.After(Second, func() {})
	e.After(2*Second, func() {})
	if e.live() != 2 {
		t.Fatalf("pending = %d, want 2", e.live())
	}
	t1.Stop()
	if e.live() != 1 {
		t.Fatalf("pending after cancel = %d, want 1", e.live())
	}
}

func TestMaxStepsGuard(t *testing.T) {
	e := NewEngine()
	e.MaxSteps = 10
	var loop func()
	loop = func() { e.Immediately(loop) }
	e.Immediately(loop)
	defer func() {
		if recover() == nil {
			t.Fatal("expected MaxSteps panic")
		}
	}()
	e.Run()
}

func TestNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil callback")
		}
	}()
	e.After(Second, nil)
}

// TestClockMonotoneProperty schedules random events (including nested ones)
// and asserts the observed clock never goes backwards.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		last := Time(-1)
		ok := true
		var observe func()
		observe = func() {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
			if r.Intn(3) == 0 {
				e.After(Duration(r.Intn(1000))*Millisecond, observe)
			}
		}
		for i := 0; i < int(n)%50+1; i++ {
			e.After(Duration(r.Intn(10000))*Millisecond, observe)
		}
		e.MaxSteps = 100000
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDeterminism runs the same random program twice and compares
// the full event schedule.
func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		r := rand.New(rand.NewSource(99))
		e := NewEngine()
		var trace []Time
		var spawn func()
		spawn = func() {
			trace = append(trace, e.Now())
			if len(trace) < 500 {
				e.After(Duration(r.Intn(100))*Millisecond, spawn)
				if r.Intn(2) == 0 {
					e.After(Duration(r.Intn(100))*Millisecond, spawn)
				}
			}
		}
		e.Immediately(spawn)
		e.MaxSteps = 10000
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// --- Pooled-slot Timer semantics: Stop must stay safe under slot reuse ---

// TestTimerStopAfterReuse fires a timer, schedules a new event that reuses
// the freed slot, and checks the stale handle cannot cancel the successor.
func TestTimerStopAfterReuse(t *testing.T) {
	e := NewEngine()
	old := e.After(Second, func() {})
	e.Run() // fires; slot returns to the free list
	fired := false
	fresh := e.After(Second, func() { fired = true })
	if old.Stop() {
		t.Fatal("stale handle stopped a reused slot")
	}
	e.Run()
	if !fired {
		t.Fatal("successor event did not fire")
	}
	_ = fresh
}

// TestTimerStopThenReschedule cancels a timer and immediately schedules a
// replacement; the replacement typically reuses the cancelled slot, and
// both handles must keep independent semantics.
func TestTimerStopThenReschedule(t *testing.T) {
	e := NewEngine()
	var got []string
	t1 := e.After(Second, func() { got = append(got, "old") })
	if !t1.Stop() {
		t.Fatal("Stop on pending timer")
	}
	t2 := e.After(2*Second, func() { got = append(got, "new") })
	if t1.Stop() {
		t.Fatal("double Stop returned true")
	}
	if t1.Pending() {
		t.Fatal("stopped timer reports Pending")
	}
	if !t2.Pending() {
		t.Fatal("fresh timer must report Pending")
	}
	e.Run()
	if len(got) != 1 || got[0] != "new" {
		t.Fatalf("got %v, want [new]", got)
	}
	if t2.Pending() {
		t.Fatal("fired timer reports Pending")
	}
}

// TestPendingCounterLive checks that the slots in use count the pending
// events across schedule, fire, and cancel, including pooled AfterCall
// events.
func TestPendingCounterLive(t *testing.T) {
	e := NewEngine()
	timers := make([]Timer, 0, 10)
	for i := 0; i < 10; i++ {
		timers = append(timers, e.After(Duration(i+1)*Second, func() {}))
	}
	e.AfterCall(11*Second, func(any) {}, nil)
	if e.live() != 11 {
		t.Fatalf("pending = %d, want 11", e.live())
	}
	for _, tm := range timers[:5] {
		tm.Stop()
	}
	if e.live() != 6 {
		t.Fatalf("pending after cancels = %d, want 6", e.live())
	}
	e.RunUntil(Time(7 * Second))
	if e.live() != 4 {
		t.Fatalf("pending after partial run = %d, want 4", e.live())
	}
	e.Run()
	if e.live() != 0 {
		t.Fatalf("pending after drain = %d, want 0", e.live())
	}
}

// TestAfterCallArg checks the allocation-free arg-carrying variant passes
// its payload through the pooled slot.
func TestAfterCallArg(t *testing.T) {
	e := NewEngine()
	type payload struct{ n int }
	p := &payload{n: 41}
	e.AfterCall(Second, func(arg any) { arg.(*payload).n++ }, p)
	e.Run()
	if p.n != 42 {
		t.Fatalf("payload = %d, want 42", p.n)
	}
}

// TestHeapStressDeterminism pounds the pooled 4-ary heap with interleaved
// schedules and cancels and verifies the fire order matches (at, seq).
func TestHeapStressDeterminism(t *testing.T) {
	run := func() []int {
		r := rand.New(rand.NewSource(7))
		e := NewEngine()
		var order []int
		var live []Timer
		for i := 0; i < 2000; i++ {
			i := i
			tm := e.After(Duration(r.Intn(50))*Millisecond, func() { order = append(order, i) })
			live = append(live, tm)
			if r.Intn(4) == 0 && len(live) > 1 {
				live[r.Intn(len(live))].Stop()
			}
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverge at %d", i)
		}
	}
}

// TestLoopsYield checks that every event loop hands the processor over
// mid-run: at GOMAXPROCS 1, a goroutine made ready just before a chain of
// 3×4,096 events must run by event 2×4,096+1 (the scheduler may pick the
// yielding goroutine itself once, from the global queue), not after the
// run returns. The two-partition case puts the whole chain in one window,
// so only a yield inside the window lets the goroutine in.
func TestLoopsYield(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const events = 3 * yieldEvery
	// chain schedules events on e one microsecond apart, each scheduling
	// the next and counting itself in n.
	chain := func(e *Engine, n *atomic.Int64) {
		var next func()
		next = func() {
			if n.Add(1) < events {
				e.After(Microsecond, next)
			}
		}
		e.After(Microsecond, next)
	}
	sharded := func(parts int) func(*atomic.Int64) func() {
		return func(n *atomic.Int64) func() {
			se := NewShardedEngine(ShardedConfig{Partitions: parts, Shards: parts, Lookahead: Second})
			chain(se.Engine(0), n)
			return func() {
				se.Run()
				if se.Windows() != 1 {
					t.Errorf("%d partitions: %d windows, want the chain in 1", parts, se.Windows())
				}
			}
		}
	}
	for _, tc := range []struct {
		name string
		// setup schedules the chain and returns the run.
		setup func(n *atomic.Int64) func()
	}{
		{"Run", func(n *atomic.Int64) func() {
			e := NewEngine()
			chain(e, n)
			return e.Run
		}},
		{"RunUntil", func(n *atomic.Int64) func() {
			e := NewEngine()
			chain(e, n)
			return func() { e.RunUntil(Time(events + 1)) }
		}},
		{"ShardedEngine.Run, 1 partition", sharded(1)},
		{"ShardedEngine.Run, 2 partitions", sharded(2)},
	} {
		var n atomic.Int64
		run := tc.setup(&n)
		seen := make(chan int64, 1)
		go func() { seen <- n.Load() }()
		run()
		if got := <-seen; got > 2*yieldEvery+1 {
			t.Errorf("%s: the ready goroutine ran after event %d of %d, want by %d",
				tc.name, got, events, 2*yieldEvery+1)
		}
		if got := n.Load(); got != events {
			t.Errorf("%s: ran %d events, want %d", tc.name, got, events)
		}
	}
}
