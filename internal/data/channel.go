package data

// Flow-level bandwidth contention. A Channel is one shared link of the
// storage hierarchy (the parallel FS's aggregate pipe, one node's NVMe, the
// burst buffer). A transfer is a flow that traverses one or more channels;
// at any instant its rate is the minimum, over its channels, of the
// channel's fair share capacity/nActive. Whenever a flow starts or
// finishes, the System recomputes every active rate and reschedules the
// next completion — the classic flow-level network model, driven entirely
// through the deterministic event engine.
//
// Flows that cross the same channels share one route, and every flow on a
// route has the same rate. Rates, the next completion and occupancy are
// therefore computed once per active route. A route keeps its flows in
// order of remaining bytes, so the only per-flow work is one subtraction
// per flow when time advances.

import (
	"cmp"
	"math"
	"slices"

	"rpgo/internal/metrics"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// Channel is one shared-bandwidth link.
type Channel struct {
	name     string
	capacity float64 // bytes/s

	// nActive counts the flows crossing the channel, updated as flows join
	// and finish; sumRate is rebuilt on every recompute.
	nActive int
	sumRate float64

	// lastFrac is the last recorded occupancy (sumRate/capacity, at most
	// 1); the samples list is the step function MeanOccupancy integrates.
	lastFrac float64

	samples []occSample
}

type occSample struct {
	t sim.Time
	v float64
}

// note records an occupancy change for the timeline.
func (c *Channel) note(at sim.Time, frac float64) {
	if frac == c.lastFrac {
		return
	}
	c.lastFrac = frac
	c.samples = append(c.samples, occSample{t: at, v: frac})
}

// OccupancySeries returns the bandwidth-occupancy timeline (fraction of
// capacity in use, sampled at every change), downsampled to maxPoints.
func (c *Channel) OccupancySeries(maxPoints int) metrics.Series {
	s := metrics.Series{Name: c.name + ".occupancy"}
	for _, p := range c.samples {
		s.Points = append(s.Points, metrics.Point{T: p.t, V: p.v})
	}
	return metrics.Downsample(s, maxPoints)
}

// MeanOccupancy returns the time-averaged occupancy fraction over
// [start, end], integrating the recorded step function.
func (c *Channel) MeanOccupancy(start, end sim.Time) float64 {
	span := end.Sub(start).Seconds()
	if span <= 0 {
		return 0
	}
	busy := 0.0
	cur := 0.0
	last := start
	for _, p := range c.samples {
		if p.t <= start {
			cur = p.v
			continue
		}
		t := p.t
		if t > end {
			t = end
		}
		busy += cur * t.Sub(last).Seconds()
		last = t
		cur = p.v
		if p.t >= end {
			break
		}
	}
	if last < end {
		busy += cur * end.Sub(last).Seconds()
	}
	return busy / span
}

// flow is one transfer, from its API call to its completion; while it is
// in flight its remaining bytes live in its route. op and dest (the
// destination tier of a write-out or tier transfer) say what its
// completion records in the registry; fn(arg) is the caller's completion
// callback.
type flow struct {
	seq   uint64
	route *route
	tt    transferInfo
	op    flowOp
	dest  spec.StageTier
	fn    func(any)
	arg   any
}

// flowOp is the transfer API call that made a flow.
type flowOp uint8

const (
	opStageToNode flowOp = iota
	opWriteFromNode
	opTierTransfer
)

type transferInfo struct {
	uid     string
	dataset string
	task    string
	bytes   int64
	src     string
	dst     string
	node    int
	start   sim.Time
	// contended names the first already-busy channel the flow joined
	// (empty when the flow had every link to itself) — the causal source
	// of any bandwidth stall.
	contended string
}

// route is the ordered set of channels a flow crosses: tier then NVMe
// (stage-in), NVMe then tier (write-out), tier then tier, a single
// channel, or none (a node-local write from a node outside the
// allocation, which completes at the next microsecond).
type route struct {
	chans []*Channel
	key   routeKey

	// rate is every flow's fair share, min over chans of capacity/nActive,
	// as of the last recompute.
	rate float64
	// flows and rem are parallel and in ascending order of remaining
	// bytes: rem[i] is the bytes flows[i] still has to move, and rem[0]
	// is the smallest.
	flows []*flow
	rem   []float64
}

// routeKey identifies a route by its channels; unused slots are nil.
type routeKey [2]*Channel

// progress moves every flow on the route dt seconds forward at the
// route's rate, clamping at empty. Every flow takes the same step, and
// both subtracting it and clamping at zero are monotone in floating
// point, so the order of rem holds and the flows that went below zero are
// a prefix. Each flow sees the per-flow model's operations exactly:
// rem − rate·dt, then zero if that is negative.
func (r *route) progress(dt float64) {
	if dt <= 0 {
		// A tick can fire at the instant of the last recompute, where a
		// route without channels (rate +Inf) would step by NaN.
		return
	}
	step := r.rate * dt
	rem := r.rem
	for i := range rem {
		rem[i] -= step
	}
	for i := 0; i < len(rem) && rem[i] < 0; i++ {
		rem[i] = 0
	}
}

// finish removes the flows within rate·1µs of empty — the engine
// quantizes time to µs, so those are done — releasing their channels and
// appending them to done, which it returns. Being the smallest
// remainders, they are a prefix of the route.
func (r *route) finish(done []*flow) []*flow {
	tol := r.rate * 1e-6
	n := 0
	for n < len(r.rem) && r.rem[n] <= tol {
		n++
	}
	if n == 0 {
		return done
	}
	for _, ch := range r.chans {
		ch.nActive -= n
	}
	done = append(done, r.flows[:n]...)
	k := copy(r.flows, r.flows[n:])
	copy(r.rem, r.rem[n:])
	clear(r.flows[k:])
	r.flows, r.rem = r.flows[:k], r.rem[:k]
	return done
}

// routeOf returns the route crossing a then b, building it on first use;
// nil channels are skipped and a repeated channel counts once.
func (s *System) routeOf(a, b *Channel) *route {
	if a == nil || a == b {
		a, b = b, nil
	}
	key := routeKey{a, b}
	if r := s.routes[key]; r != nil {
		return r
	}
	r := &route{key: key}
	n := 0
	for n < len(key) && key[n] != nil {
		n++
	}
	r.chans = r.key[:n]
	if s.routes == nil {
		s.routes = make(map[routeKey]*route)
	}
	s.routes[key] = r
	return r
}

// join puts a started flow on its route, in its place by remaining bytes,
// and claims the route's channels.
func (s *System) join(f *flow) {
	r := f.route
	if len(r.rem) == 0 {
		s.active = append(s.active, r)
	}
	// The flow goes after every flow with as many bytes left or fewer: on
	// a route whose flows all start at one size, that is the end.
	rem := float64(f.tt.bytes)
	i := len(r.rem)
	for i > 0 && r.rem[i-1] > rem {
		i--
	}
	r.flows = slices.Insert(r.flows, i, f)
	r.rem = slices.Insert(r.rem, i, rem)
	for _, ch := range r.chans {
		ch.nActive++
	}
	s.nFlows++
}

// advance progresses every flow to the current time.
func (s *System) advance() {
	now := s.eng.Now()
	if dt := now.Sub(s.lastT).Seconds(); dt > 0 {
		for _, r := range s.active {
			r.progress(dt)
		}
	}
	s.lastT = now
}

// recompute redistributes fair shares and reschedules the next completion.
// It must run at the current time with advance already applied. Within a
// route flowETA is monotone in the remaining bytes, so the route's head,
// its smallest remainder, gives its earliest completion.
func (s *System) recompute() {
	for _, ch := range s.channels {
		ch.sumRate = 0
	}
	next := sim.Duration(-1)
	for _, r := range s.active {
		rate := math.Inf(1)
		for _, ch := range r.chans {
			if share := ch.capacity / float64(ch.nActive); share < rate {
				rate = share
			}
		}
		r.rate = rate
		load := float64(len(r.rem)) * rate
		for _, ch := range r.chans {
			ch.sumRate += load
		}
		if d := flowETA(r.rem[0], rate); next < 0 || d < next {
			next = d
		}
	}
	now := s.eng.Now()
	for _, ch := range s.channels {
		// Rounding can push the summed shares a few ulps past capacity.
		ch.note(now, min(1, ch.sumRate/ch.capacity))
	}
	s.timer.Stop()
	if next < 0 {
		return
	}
	s.timer = s.eng.After(next, s.tickFn)
}

// flowETA converts remaining bytes at a rate to a Duration, never zero so
// virtual time strictly progresses toward completion.
func flowETA(remaining, rate float64) sim.Duration {
	if remaining <= 0 {
		return 0
	}
	d := sim.Seconds(remaining / rate)
	if d <= 0 {
		d = sim.Microsecond
	}
	return d
}

// tick fires at the earliest projected completion: finished flows complete
// (in start order across all routes, keeping runs deterministic) and
// shares redistribute.
func (s *System) tick() {
	now := s.eng.Now()
	dt := now.Sub(s.lastT).Seconds()
	s.lastT = now
	done := s.done[:0]
	busy := s.active[:0]
	for _, r := range s.active {
		r.progress(dt)
		done = r.finish(done)
		if len(r.rem) > 0 {
			busy = append(busy, r)
		}
	}
	clear(s.active[len(busy):])
	s.active = busy
	if len(done) > 0 {
		slices.SortFunc(done, func(a, b *flow) int { return cmp.Compare(a.seq, b.seq) })
		s.nFlows -= len(done)
		for _, f := range done {
			s.bytesMoved += f.tt.bytes
			s.finishTransfer(f, now)
		}
		clear(done)
	}
	s.done = done[:0]
	s.recompute()
}
