// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine drives every runtime model in this repository: virtual time is
// an int64 microsecond counter, events are callbacks ordered by (time,
// sequence), and all components are single-threaded state machines. Given
// the same seed and the same sequence of Schedule calls, a simulation run is
// bit-for-bit reproducible, which the test suite relies on.
//
// The event core is allocation-lean: scheduled callbacks live in a pooled
// slot arena reused through a free list, the priority queue is a value-based
// 4-ary heap (no per-event heap allocation, no interface boxing), and Timer
// handles are generation-tagged values so Stop stays safe against slot
// reuse. Cancellation is lazy — a cancelled slot is recycled immediately
// and its stale queue entry is recognized by generation mismatch on pop —
// which keeps Stop O(1) without disturbing heap order.
//
// Events scheduled at the current instant skip the heap: they wait in the
// immediate lane, a FIFO of (slot, gen) pairs, and run after the heap's
// live entries at that instant and before the clock moves on. That is
// exactly their (time, sequence) place, so the lane changes no order (see
// step).
package sim

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// Time is a point in virtual time, in microseconds since simulation start.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000
	Second      Duration = 1000 * 1000
	Minute      Duration = 60 * Second
	Hour        Duration = 60 * Minute
)

// Seconds converts a float64 number of seconds to a Duration, rounding to
// the nearest microsecond. Negative inputs clamp to zero: latency models
// occasionally produce tiny negative samples and the engine requires
// non-negative delays.
func Seconds(s float64) Duration {
	if s <= 0 || math.IsNaN(s) {
		return 0
	}
	return Duration(math.Round(s * 1e6))
}

// Seconds reports the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e6 }

// Seconds reports the time as a float64 number of seconds since start.
func (t Time) Seconds() float64 { return float64(t) / 1e6 }

// Add returns the time advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

func (d Duration) String() string { return fmt.Sprintf("%.6fs", d.Seconds()) }

// eventSlot is pooled storage for one scheduled callback. Slots are reused
// through a free list; gen increments on every recycle so stale handles and
// stale heap entries can never touch a successor event.
type eventSlot struct {
	fn    func()
	fnArg func(any)
	arg   any
	gen   uint32
}

// heapEntry is one value entry in the 4-ary event heap. Entries order by
// (at, seq) so same-time events fire in the order they were scheduled,
// which keeps runs deterministic. The (slot, gen) pair resolves the
// callback; a gen mismatch on pop marks a cancelled event.
type heapEntry struct {
	at   Time
	seq  uint64
	slot int32
	gen  uint32
}

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// laneEntry is one event of the immediate lane. It needs no time, since a
// lane entry is always at the current instant, and no sequence number,
// since its place in the lane is its order.
type laneEntry struct {
	slot int32
	gen  uint32
}

// Timer is a generation-tagged handle to a scheduled event. It is a value:
// copying is cheap and the zero Timer is inert (Stop reports false,
// Pending reports false).
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Stop cancels the timer. It reports whether the callback was still
// pending; stopping an already-fired or already-stopped timer returns false
// and has no effect, even if the underlying pooled slot has since been
// reused by a later event (the generation tag distinguishes them).
func (t Timer) Stop() bool {
	if t.eng == nil || t.eng.slots[t.slot].gen != t.gen {
		return false
	}
	t.eng.freeSlot(t.slot)
	t.eng.cancels++
	return true
}

// Pending reports whether the timer's callback is still scheduled (not yet
// fired, not stopped).
func (t Timer) Pending() bool {
	return t.eng != nil && t.eng.slots[t.slot].gen == t.gen
}

// Engine is the discrete-event simulation core.
type Engine struct {
	now Time
	// seq numbers heap entries in push order, so it also counts the heap
	// pushes. lane holds the events scheduled at now.
	seq     uint64
	heap    []heapEntry
	lane    fifo[laneEntry]
	slots   []eventSlot
	free    []int32
	running bool
	steps   uint64
	// Telemetry counters (internal/obs reads them through accessors):
	// heapHigh is the deepest the event heap ever got, cancels counts
	// Timer.Stop calls that found a live event.
	heapHigh int
	cancels  uint64
	// MaxSteps aborts Run with a panic if the event count exceeds it.
	// Zero means no limit. It exists to catch accidental event storms in
	// tests.
	MaxSteps uint64
	// Phase, when set, receives one PhaseDispatch wall-clock sample per Run
	// call. It fires only from Run — never under a ShardedEngine, whose
	// window loop does its own reporting — so a domain engine inside a
	// ShardedSession never double-reports.
	Phase PhaseFunc
	// heartbeat, when set, fires every heartbeatEvery events from inside
	// the dispatch loop, on the simulation thread. Only a one-partition
	// ShardedEngine sets it, for the length of its run; unset, it costs
	// one nil check per event, beside the yield's mask (see step).
	heartbeat func()
	hbLeft    uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events processed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// HeapHighWater returns the deepest the event heap ever got (including
// cancelled entries awaiting lazy removal).
func (e *Engine) HeapHighWater() int { return e.heapHigh }

// HeapPushes returns how many events went through the heap: every
// scheduled event except those the immediate lane took.
func (e *Engine) HeapPushes() uint64 { return e.seq }

// Cancellations returns how many timers were stopped while still pending.
func (e *Engine) Cancellations() uint64 { return e.cancels }

// PoolSlots returns the size of the pooled slot arena; PoolFree how many
// of those slots sit on the free list. Their difference is the number of
// scheduled, uncancelled events: firing and Stop both free a slot at once,
// and only a stopped event's heap or lane entry lingers.
func (e *Engine) PoolSlots() int { return len(e.slots) }

// PoolFree returns the free-list length of the slot arena.
func (e *Engine) PoolFree() int { return len(e.free) }

// schedule allocates a pooled slot for the callback and queues it: on the
// immediate lane when it is due now (times in the past clamp to now), on
// the heap otherwise. Exactly one of fn / fnArg is non-nil.
func (e *Engine) schedule(at Time, fn func(), fnArg func(any), arg any) Timer {
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, eventSlot{})
		slot = int32(len(e.slots) - 1)
	}
	s := &e.slots[slot]
	s.fn, s.fnArg, s.arg = fn, fnArg, arg
	if at <= e.now {
		e.lane.push(laneEntry{slot: slot, gen: s.gen})
	} else {
		e.heapPush(heapEntry{at: at, seq: e.seq, slot: slot, gen: s.gen})
		e.seq++
	}
	return Timer{eng: e, slot: slot, gen: s.gen}
}

// freeSlot recycles a slot: the generation bump invalidates every
// outstanding Timer handle and heap entry that references it.
func (e *Engine) freeSlot(slot int32) {
	s := &e.slots[slot]
	s.gen++
	s.fn, s.fnArg, s.arg = nil, nil, nil
	e.free = append(e.free, slot)
}

// At schedules fn to run at absolute time at. Times in the past run at the
// current time (never before: virtual time is monotone).
func (e *Engine) At(at Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	return e.schedule(at, fn, nil, nil)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Immediately schedules fn at the current time, after already-queued
// same-time events.
func (e *Engine) Immediately(fn func()) Timer {
	return e.At(e.now, fn)
}

// AtCall schedules fn(arg) at absolute time at. It exists for hot paths:
// when the callback state is a single pointer, passing it as arg avoids
// the closure allocation that At would force on the caller (fn can be a
// long-lived func value shared by every call site).
func (e *Engine) AtCall(at Time, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: AtCall with nil callback")
	}
	return e.schedule(at, nil, fn, arg)
}

// AfterCall schedules fn(arg) to run d after the current time.
func (e *Engine) AfterCall(d Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return e.AtCall(e.now.Add(d), fn, arg)
}

// ImmediatelyCall schedules fn(arg) at the current time, after
// already-queued same-time events.
func (e *Engine) ImmediatelyCall(fn func(any), arg any) Timer {
	return e.AtCall(e.now, fn, arg)
}

// heapPush appends an entry and sifts it up the 4-ary heap.
func (e *Engine) heapPush(ent heapEntry) {
	e.heap = append(e.heap, ent)
	if len(e.heap) > e.heapHigh {
		e.heapHigh = len(e.heap)
	}
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(e.heap[i], e.heap[p]) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

// heapPop removes the minimum entry, sifting the tail element down.
func (e *Engine) heapPop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n <= 1 {
		return
	}
	i := 0
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(e.heap[j], e.heap[m]) {
				m = j
			}
		}
		if !entryLess(e.heap[m], e.heap[i]) {
			break
		}
		e.heap[i], e.heap[m] = e.heap[m], e.heap[i]
		i = m
	}
}

// step pops and runs one event. It reports false when no events remain.
//
// The immediate lane keeps the heap's (time, sequence) order exactly. A
// live heap entry at now was pushed before the clock reached now, so its
// sequence number is below that of every lane entry, pushed since. And
// while the clock sits at now, no heap entry at now can be made: schedule
// sends those to the lane. So step runs the heap's entries at now first,
// then the lane, and only then pops the heap past now.
//
// Every yieldEvery-th event ends with runtime.Gosched, so every loop over
// step (Run, RunUntil, a sharded engine's windows) hands the processor to
// a waiting goroutine at one cadence. A yield changes which goroutine
// runs, never the order of events.
func (e *Engine) step() bool {
	for {
		var slot int32
		if len(e.heap) > 0 && (e.lane.len() == 0 || e.heap[0].at == e.now) {
			ent := e.heap[0]
			e.heapPop()
			if e.slots[ent.slot].gen != ent.gen {
				continue // cancelled: slot already recycled
			}
			if ent.at < e.now {
				panic(fmt.Sprintf("sim: time went backwards: %v < %v", ent.at, e.now))
			}
			e.now = ent.at
			slot = ent.slot
		} else if e.lane.len() > 0 {
			ent := e.lane.pop()
			if e.slots[ent.slot].gen != ent.gen {
				continue // cancelled
			}
			slot = ent.slot
		} else {
			return false
		}
		e.steps++
		if e.MaxSteps > 0 && e.steps > e.MaxSteps {
			panic(fmt.Sprintf("sim: exceeded MaxSteps=%d at t=%v", e.MaxSteps, e.now))
		}
		s := &e.slots[slot]
		fn, fnArg, arg := s.fn, s.fnArg, s.arg
		e.freeSlot(slot)
		if fnArg != nil {
			fnArg(arg)
		} else {
			fn()
		}
		if e.heartbeat != nil {
			if e.hbLeft <= 1 {
				e.hbLeft = heartbeatEvery
				e.heartbeat()
			} else {
				e.hbLeft--
			}
		}
		if e.steps&(yieldEvery-1) == 0 {
			runtime.Gosched()
		}
		return true
	}
}

// yieldEvery is the event cadence of step's yield; a power of two, so the
// test is one mask. At GOMAXPROCS 1 a concurrent GC's mark worker runs
// only when the simulation goroutine yields, and a sparser cadence leaves
// the mark to sysmon's preemption with write barriers on (DESIGN.md §5).
const yieldEvery = 4096

// heartbeatEvery is the event cadence of the engine heartbeat, starting
// with the first event. Events take a few hundred nanoseconds apiece, so
// this is a beat every millisecond or two — frequent enough for a
// wall-clock-capped monitor, cheap enough to never show up in profiles.
const heartbeatEvery = 4096

// Run processes events until the queue is empty.
func (e *Engine) Run() {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	var t0 time.Time
	if e.Phase != nil {
		t0 = time.Now()
	}
	for e.step() {
	}
	if e.Phase != nil {
		e.Phase(PhaseDispatch, time.Since(t0).Nanoseconds())
	}
}

// peekTime returns the timestamp of the earliest live event, popping any
// lazily-cancelled entries it finds on the way: now while the lane holds a
// live event, else the heap's top. ok is false when no live events remain.
func (e *Engine) peekTime() (Time, bool) {
	for e.lane.len() > 0 {
		ent := e.lane.front()
		if e.slots[ent.slot].gen == ent.gen {
			return e.now, true
		}
		e.lane.pop()
	}
	for len(e.heap) > 0 {
		ent := e.heap[0]
		if e.slots[ent.slot].gen != ent.gen {
			e.heapPop()
			continue
		}
		return ent.at, true
	}
	return 0, false
}

// runBefore processes every event with time strictly below limit, leaving
// the clock at the last event executed (never forced forward). It is the
// window primitive of the sharded engine: events at or beyond the limit
// may still be preceded by cross-shard messages, so they must not fire.
func (e *Engine) runBefore(limit Time) {
	for {
		at, ok := e.peekTime()
		if !ok || at >= limit {
			return
		}
		e.step()
	}
}

// RunUntil processes events with time ≤ deadline, then sets the clock to the
// deadline. Events scheduled beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	if e.running {
		panic("sim: RunUntil called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		at, ok := e.peekTime()
		if !ok || at > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
