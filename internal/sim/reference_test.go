package sim

import (
	"fmt"
	"slices"
	"testing"
)

// refEngine is the heap-only engine the immediate lane replaced, kept as
// the reference it must match event for event: every scheduled event,
// same-instant ones included, takes a (time, sequence) entry on the 4-ary
// heap. It carries the scheduling, Stop and run surface the lane touches,
// not the telemetry, phase hook or heartbeat, which it does not change.
type refEngine struct {
	now     Time
	seq     uint64
	heap    []heapEntry
	slots   []eventSlot
	free    []int32
	running bool
	steps   uint64
	cancels uint64
}

type refTimer struct {
	eng  *refEngine
	slot int32
	gen  uint32
}

func (t refTimer) Stop() bool {
	if t.eng == nil || t.eng.slots[t.slot].gen != t.gen {
		return false
	}
	t.eng.freeSlot(t.slot)
	t.eng.cancels++
	return true
}

func (t refTimer) Pending() bool {
	return t.eng != nil && t.eng.slots[t.slot].gen == t.gen
}

func (e *refEngine) Now() Time             { return e.now }
func (e *refEngine) Steps() uint64         { return e.steps }
func (e *refEngine) Cancellations() uint64 { return e.cancels }

func (e *refEngine) schedule(at Time, fn func(), fnArg func(any), arg any) refTimer {
	if at < e.now {
		at = e.now
	}
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
	e.heapPush(heapEntry{at: at, seq: e.seq, slot: slot, gen: s.gen})
	e.seq++
	return refTimer{eng: e, slot: slot, gen: s.gen}
}

func (e *refEngine) freeSlot(slot int32) {
	s := &e.slots[slot]
	s.gen++
	s.fn, s.fnArg, s.arg = nil, nil, nil
	e.free = append(e.free, slot)
}

func (e *refEngine) At(at Time, fn func()) refTimer { return e.schedule(at, fn, nil, nil) }

func (e *refEngine) After(d Duration, fn func()) refTimer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

func (e *refEngine) Immediately(fn func()) refTimer { return e.At(e.now, fn) }

func (e *refEngine) AtCall(at Time, fn func(any), arg any) refTimer {
	return e.schedule(at, nil, fn, arg)
}

func (e *refEngine) AfterCall(d Duration, fn func(any), arg any) refTimer {
	if d < 0 {
		d = 0
	}
	return e.AtCall(e.now.Add(d), fn, arg)
}

func (e *refEngine) ImmediatelyCall(fn func(any), arg any) refTimer {
	return e.AtCall(e.now, fn, arg)
}

func (e *refEngine) heapPush(ent heapEntry) {
	e.heap = append(e.heap, ent)
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

func (e *refEngine) heapPop() {
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
		end := min(c+4, n)
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

func (e *refEngine) step() bool {
	for len(e.heap) > 0 {
		ent := e.heap[0]
		e.heapPop()
		s := &e.slots[ent.slot]
		if s.gen != ent.gen {
			continue
		}
		if ent.at < e.now {
			panic(fmt.Sprintf("sim: time went backwards: %v < %v", ent.at, e.now))
		}
		e.now = ent.at
		e.steps++
		fn, fnArg, arg := s.fn, s.fnArg, s.arg
		e.freeSlot(ent.slot)
		if fnArg != nil {
			fnArg(arg)
		} else {
			fn()
		}
		return true
	}
	return false
}

func (e *refEngine) Run() {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.step() {
	}
}

func (e *refEngine) runBefore(limit Time) {
	for len(e.heap) > 0 {
		ent := e.heap[0]
		if e.slots[ent.slot].gen != ent.gen {
			e.heapPop()
			continue
		}
		if ent.at >= limit {
			return
		}
		e.step()
	}
}

func (e *refEngine) RunUntil(deadline Time) {
	if e.running {
		panic("sim: RunUntil called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.heap) > 0 {
		ent := e.heap[0]
		if e.slots[ent.slot].gen != ent.gen {
			e.heapPop()
			continue
		}
		if ent.at > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// fuzzTimer is a Timer of either engine.
type fuzzTimer interface {
	Stop() bool
	Pending() bool
}

// fuzzEngine is the surface FuzzEngineMatchesReference drives, on the
// engine and on its reference alike.
type fuzzEngine interface {
	Now() Time
	Steps() uint64
	Cancellations() uint64
	At(Time, func()) fuzzTimer
	After(Duration, func()) fuzzTimer
	Immediately(func()) fuzzTimer
	AtCall(Time, func(any), any) fuzzTimer
	AfterCall(Duration, func(any), any) fuzzTimer
	ImmediatelyCall(func(any), any) fuzzTimer
	Run()
	RunUntil(Time)
	runBefore(Time)
}

// laneEngine and heapEngine adapt the two engines' typed Timers to
// fuzzTimer.
type laneEngine struct{ *Engine }

func (e laneEngine) At(at Time, fn func()) fuzzTimer       { return e.Engine.At(at, fn) }
func (e laneEngine) After(d Duration, fn func()) fuzzTimer { return e.Engine.After(d, fn) }
func (e laneEngine) Immediately(fn func()) fuzzTimer       { return e.Engine.Immediately(fn) }
func (e laneEngine) AtCall(at Time, fn func(any), arg any) fuzzTimer {
	return e.Engine.AtCall(at, fn, arg)
}
func (e laneEngine) AfterCall(d Duration, fn func(any), arg any) fuzzTimer {
	return e.Engine.AfterCall(d, fn, arg)
}
func (e laneEngine) ImmediatelyCall(fn func(any), arg any) fuzzTimer {
	return e.Engine.ImmediatelyCall(fn, arg)
}

type heapEngine struct{ *refEngine }

func (e heapEngine) At(at Time, fn func()) fuzzTimer       { return e.refEngine.At(at, fn) }
func (e heapEngine) After(d Duration, fn func()) fuzzTimer { return e.refEngine.After(d, fn) }
func (e heapEngine) Immediately(fn func()) fuzzTimer       { return e.refEngine.Immediately(fn) }
func (e heapEngine) AtCall(at Time, fn func(any), arg any) fuzzTimer {
	return e.refEngine.AtCall(at, fn, arg)
}
func (e heapEngine) AfterCall(d Duration, fn func(any), arg any) fuzzTimer {
	return e.refEngine.AfterCall(d, fn, arg)
}
func (e heapEngine) ImmediatelyCall(fn func(any), arg any) fuzzTimer {
	return e.refEngine.ImmediatelyCall(fn, arg)
}

// splitmix64 is a stateless mixer: every draw of the fuzz program is a
// function of the seed, the event and the draw's index, so an event acts
// the same whichever engine runs it and whenever it fires.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// fuzzProgram runs one random program on one engine and logs what it
// observes. Events are numbered in the order they are scheduled; when the
// engines agree, they number them alike.
type fuzzProgram struct {
	seed   uint64
	budget int // most events the program schedules
	eng    fuzzEngine
	timers []fuzzTimer // by event id
	log    []string
	callFn func(any)
}

func (p *fuzzProgram) draw(id, k int) uint64 {
	return splitmix64(p.seed ^ splitmix64(uint64(id)<<8|uint64(k)))
}

// spawn schedules event k of parent: at least half with zero delay, some
// in the past, through every scheduling form.
func (p *fuzzProgram) spawn(parent, k int) {
	if len(p.timers) >= p.budget {
		return
	}
	id := len(p.timers)
	r := p.draw(parent, 16+k)
	var d Duration
	switch r % 8 {
	case 0, 1, 2, 3:
		d = 0
	case 4, 5:
		d = Duration(1 + r>>8%5)
	case 6:
		d = Duration(1 + r>>8%100)
	default:
		d = -Duration(1 + r>>8%10) // in the past: clamps to now
	}
	fire := func() { p.fire(id) }
	var tm fuzzTimer
	switch e, now := p.eng, p.eng.Now(); r >> 3 % 6 {
	case 0:
		tm = e.At(now.Add(d), fire)
	case 1:
		tm = e.After(d, fire)
	case 2:
		tm = e.Immediately(fire)
	case 3:
		tm = e.AtCall(now.Add(d), p.callFn, id)
	case 4:
		tm = e.AfterCall(d, p.callFn, id)
	default:
		tm = e.ImmediatelyCall(p.callFn, id)
	}
	p.timers = append(p.timers, tm)
}

// fire is event id's callback: log it, schedule up to three more events,
// and sometimes stop a random earlier one.
func (p *fuzzProgram) fire(id int) {
	p.log = append(p.log, fmt.Sprintf("fire %d at %d", id, p.eng.Now()))
	for k := range int(p.draw(id, 0) % 4) {
		p.spawn(id, k)
	}
	if r := p.draw(id, 1); r%3 == 0 {
		j := int(r >> 8 % uint64(len(p.timers)))
		p.log = append(p.log, fmt.Sprintf("stop %d: %t", j, p.timers[j].Stop()))
	}
}

// run plays the program: four root events, then one window per byte of
// windows — Run, RunUntil or runBefore with a limit up to 63 µs ahead, or
// a root event scheduled from outside the engine — logging the clock and
// counters after each.
func (p *fuzzProgram) run(windows []byte) []string {
	p.callFn = func(arg any) { p.fire(arg.(int)) }
	root := p.budget // ids of root events' parents, past every event id
	for k := range 4 {
		p.spawn(root, k)
	}
	for i, b := range windows {
		limit := p.eng.Now().Add(Duration(b >> 2))
		switch b % 4 {
		case 0:
			p.eng.Run()
		case 1:
			p.eng.RunUntil(limit)
		case 2:
			p.eng.runBefore(limit)
		default:
			p.spawn(root+1+i, 0)
		}
		p.log = append(p.log, fmt.Sprintf("window %d: now %d steps %d cancels %d",
			i, p.eng.Now(), p.eng.Steps(), p.eng.Cancellations()))
	}
	p.eng.Run()
	p.log = append(p.log, fmt.Sprintf("end: now %d steps %d cancels %d",
		p.eng.Now(), p.eng.Steps(), p.eng.Cancellations()))
	return p.log
}

// FuzzEngineMatchesReference drives the engine and the heap-only reference
// with one random program — every scheduling form, mostly zero delays,
// times in the past, callbacks that schedule and stop events, and
// interleaved Run, RunUntil and runBefore windows — and requires the same
// firing sequence, Stop results, step and cancellation counts and clock.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add(uint64(1), []byte{0})
	f.Add(uint64(2), []byte{1 | 3<<2, 2 | 5<<2, 3, 0})
	f.Add(uint64(3), []byte{2, 2 | 1<<2, 3, 1, 2 | 63<<2, 0})
	f.Add(uint64(29), []byte{3, 3, 2 | 7<<2, 1 | 2<<2, 3, 2, 1 | 40<<2})
	f.Fuzz(func(t *testing.T, seed uint64, windows []byte) {
		if len(windows) > 64 {
			windows = windows[:64]
		}
		got := (&fuzzProgram{seed: seed, budget: 400, eng: laneEngine{NewEngine()}}).run(windows)
		want := (&fuzzProgram{seed: seed, budget: 400, eng: heapEngine{&refEngine{}}}).run(windows)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("line %d of %d: engine %q, reference %q", i, len(want), at(got, i), at(want, i))
		}
	})
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<end>"
}

// TestHeapEntryAtNowBeforeLane: two events due at 10 sit on the heap; the
// first schedules two same-instant events, which take the lane and so run
// after the second heap event, as their later sequence numbers would
// place them on the heap.
func TestHeapEntryAtNowBeforeLane(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(10, func() {
		got = append(got, "heap A")
		e.Immediately(func() { got = append(got, "lane 1") })
		e.After(0, func() { got = append(got, "lane 2") })
	})
	e.At(10, func() { got = append(got, "heap B") })
	e.Run()
	if want := []string{"heap A", "heap B", "lane 1", "lane 2"}; !slices.Equal(got, want) {
		t.Fatalf("order %q, want %q", got, want)
	}
	if n := e.HeapPushes(); n != 2 {
		t.Errorf("HeapPushes = %d, want 2: same-instant events skip the heap", n)
	}
}

// TestStopLaneEntry: a stopped lane entry is skipped on pop by its
// generation, as a stopped heap entry is.
func TestStopLaneEntry(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Immediately(func() { got = append(got, "a") })
	b := e.Immediately(func() { got = append(got, "b") })
	e.ImmediatelyCall(func(arg any) { got = append(got, arg.(string)) }, "c")
	if !b.Stop() {
		t.Fatal("Stop of a pending lane entry reported false")
	}
	if b.Pending() || b.Stop() {
		t.Fatal("a stopped lane entry is still pending")
	}
	e.Run()
	if want := []string{"a", "c"}; !slices.Equal(got, want) {
		t.Fatalf("fired %q, want %q", got, want)
	}
	if e.Steps() != 2 || e.Cancellations() != 1 || e.PoolSlots() != e.PoolFree() {
		t.Errorf("steps %d cancels %d pool %d/%d free, want 2, 1 and all free",
			e.Steps(), e.Cancellations(), e.PoolFree(), e.PoolSlots())
	}
}

// TestRunBeforeDrainsLane: runBefore runs the lane, and what the lane
// schedules at the same instant, but nothing at or past its limit.
func TestRunBeforeDrainsLane(t *testing.T) {
	e := NewEngine()
	e.At(3, func() {})
	var got []string
	e.At(5, func() { got = append(got, "at 5") })
	e.RunUntil(3)
	e.Immediately(func() {
		got = append(got, "lane 1")
		e.Immediately(func() { got = append(got, "lane 2") })
	})
	e.runBefore(5)
	if want := []string{"lane 1", "lane 2"}; !slices.Equal(got, want) || e.Now() != 3 {
		t.Fatalf("fired %q at clock %d, want %q at 3", got, e.Now(), want)
	}
	if at, ok := e.peekTime(); !ok || at != 5 {
		t.Fatalf("peekTime = %d, %t after the lane drained, want 5, true", at, ok)
	}
	e.runBefore(6)
	if len(got) != 3 || e.Now() != 5 {
		t.Fatalf("fired %q at clock %d, want the event at 5 too", got, e.Now())
	}
}
