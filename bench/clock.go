package main

import (
	"runtime"
	"slices"
	"time"

	"rpgo/internal/core"
	"rpgo/internal/obs"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// span is one timed interval of a rep. Times are nanoseconds since the rep
// began, with the traced rep's MemStats reads cut out.
type span struct {
	name   string
	parent int // index into clock.spans; -1 for the rep root
	start  int64
	dur    int64
	// bytes and allocs are the MemStats deltas of a top-level span, read
	// in traced reps only.
	bytes, allocs uint64
}

// clock times one rep from outside the program: the workload marks each
// call it makes into a layer, and the marks split the rep into contiguous
// top-level spans under the root span "rep". Untraced reps cost one
// time.Now per mark. Traced reps also attach a fresh self-profiler, read
// MemStats at every mark (the reads are excluded from every span), and take
// the session's metrics snapshot once the rep has stopped.
type clock struct {
	traced bool
	prof   *obs.SelfProfiler
	snap   *obs.Snapshot

	wall   time.Time     // when the rep began
	paused time.Duration // MemStats reads so far
	spans  []span
	mem    runtime.MemStats
	// memBytes/memAllocs hold the last MemStats reading; repBytes and
	// repAllocs the whole rep's delta, read just outside its timed region.
	memBytes, memAllocs  uint64
	repBytes, repAllocs  uint64
	waiting              bool // the open top-level span is sim.wait
	submitted            int  // tasks in top-level core.submit calls
	feedGenNs, feedSubNs int64
}

func (c *clock) now() int64 { return int64(time.Since(c.wall) - c.paused) }

func (c *clock) readMem() {
	t := time.Now()
	runtime.ReadMemStats(&c.mem)
	c.memBytes, c.memAllocs = c.mem.TotalAlloc, c.mem.Mallocs
	c.paused += time.Since(t)
}

// begin starts a rep; the MemStats read that opens it falls outside it.
func (c *clock) begin(traced bool) {
	c.traced, c.snap, c.prof = traced, nil, nil
	if traced {
		c.prof = obs.NewSelfProfiler()
	}
	c.spans = append(c.spans[:0], span{name: "rep", parent: -1})
	c.waiting, c.submitted = false, 0
	c.feedGenNs, c.feedSubNs = 0, 0
	c.readMem()
	c.repBytes, c.repAllocs = c.memBytes, c.memAllocs
	c.wall = time.Now()
	c.paused = 0
}

// mark closes the open top-level span and opens the next one.
func (c *clock) mark(name string) {
	c.closeTop()
	c.spans = append(c.spans, span{name: name, start: c.now()})
	c.waiting = name == "sim.wait"
}

func (c *clock) closeTop() {
	last := &c.spans[len(c.spans)-1]
	if last.parent < 0 {
		return // the first mark; begin read the baseline
	}
	last.dur = c.now() - last.start
	if c.traced {
		b, a := c.memBytes, c.memAllocs
		c.readMem()
		last.bytes, last.allocs = c.memBytes-b, c.memAllocs-a
	}
}

// stop ends the rep's timed region. In traced reps it then takes the
// metrics snapshot, which is outside the rep.
func (c *clock) stop(snapshot func() *obs.Snapshot) {
	c.closeTop()
	c.spans[0].dur = c.now()
	c.waiting = false
	b, a := c.repBytes, c.repAllocs
	c.readMem()
	c.repBytes, c.repAllocs = c.memBytes-b, c.memAllocs-a
	if c.traced {
		c.snap = snapshot()
	}
}

// submit is the benchmark's own tm.Submit. Before sim.wait it runs inside
// the top-level core.submit span; from a completion callback it is timed
// here and later becomes a duration-only child of sim.dispatch.
func (c *clock) submit(tm *core.TaskManager, tds []*spec.TaskDescription) {
	if !c.waiting {
		tm.Submit(tds)
		c.submitted += len(tds)
		return
	}
	t := time.Now()
	tm.Submit(tds)
	c.feedSubNs += time.Since(t).Nanoseconds()
}

// wait is the index of the sim.wait span, which every workload opens.
func (c *clock) wait() int {
	return slices.IndexFunc(c.spans, func(s span) bool { return s.name == "sim.wait" })
}

// setupNs is the time before the engine runs: everything ahead of sim.wait.
func (c *clock) setupNs() int64 { return c.spans[c.wait()].start }

// addPhases hangs the self-profiler's phases under sim.wait as
// duration-only children, laid end to end from their parent's start.
// Dispatch covers the placement, sink folds and callback feeds that happen
// inside it, so those nest one level further down. Sharded workers take
// turns on the one P, so their phases add up inside the coordinator's
// dispatch time as they are. Barrier waits do not: a parked shard waits
// while another runs, so they overlap the other phases and are left out
// (sharded.barrier_stall_frac reports them).
func (c *clock) addPhases() {
	wait := c.wait()
	p := c.prof
	dispatch := c.child(wait, "sim.dispatch", p.TotalNs(sim.PhaseDispatch))
	c.child(wait, "sharded.exchange", p.TotalNs(sim.PhaseExchange))
	c.child(dispatch, "launch.placement", p.TotalNs(sim.PhasePlacement))
	c.child(dispatch, "obs.sinkfold", p.TotalNs(sim.PhaseSinkFold))
	c.child(dispatch, "workload.gen", c.feedGenNs)
	c.child(dispatch, "core.submit", c.feedSubNs)
}

// child appends a duration-only span after parent's last child and returns
// its index.
func (c *clock) child(parent int, name string, dur int64) int {
	start := c.spans[parent].start
	for _, s := range c.spans {
		if s.parent == parent {
			start = max(start, s.start+s.dur)
		}
	}
	c.spans = append(c.spans, span{name: name, parent: parent, start: start, dur: dur})
	return len(c.spans) - 1
}
