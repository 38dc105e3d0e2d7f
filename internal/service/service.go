// Package service implements the inference-service subsystem: persistent
// model-serving endpoints running inside a pilot allocation, the execution
// modality that RHAPSODY-style hybrid AI-HPC workflows couple their HPC
// tasks to (request/response against long-lived model replicas, rather than
// fire-and-forget function tasks).
//
// An Endpoint owns a shared request queue in front of a set of replicas.
// Each replica is one long-running service task deployed through the
// agent's normal task pipeline onto a backend partition, so replicas pay
// real launch latency, occupy real slots, and die with their backend
// instance. Requests are served in dynamically formed batches — an idle
// replica takes up to MaxBatch queued requests, holding an under-full
// batch open for BatchWindow — with a batch of n costing
// BaseLatency + (n-1)·PerItemLatency (the batching speedup of modern
// serving engines). A load-based autoscaler grows the replica set when
// queue depth per replica exceeds a target and shrinks it when the
// endpoint idles, within [MinReplicas, MaxReplicas] and spaced by a
// cooldown. Every decision runs through the discrete-event engine, so a
// fixed seed reproduces the request trace bit-for-bit.
package service

import (
	"fmt"
	"math"

	"rpgo/internal/metrics"
	"rpgo/internal/model"
	"rpgo/internal/profiler"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// ReplicaCallbacks connect the endpoint to one replica's task lifecycle in
// the agent.
type ReplicaCallbacks struct {
	// Up fires when the replica is warm and accepting requests; stop
	// ends the replica's process body (completing its service task) and
	// must be invoked at most once.
	Up func(stop func())
	// Down fires when the replica's task reached a final state — after a
	// requested stop (failed=false) or a backend failure (failed=true).
	Down func(failed bool, reason string)
}

// LaunchFunc deploys one replica as a long-running service task; the
// agent's service manager provides it.
type LaunchFunc func(uid string, cb ReplicaCallbacks)

// ScaleEvent records one autoscaler or failure-recovery action on the
// replica set.
type ScaleEvent struct {
	At     sim.Time
	From   int
	To     int
	Reason string
}

func (e ScaleEvent) String() string {
	return fmt.Sprintf("t=%-10v replicas %d -> %d (%s)", e.At, e.From, e.To, e.Reason)
}

// maxReplaceAttempts bounds consecutive failed replica launches before the
// endpoint declares itself broken (so a dead partition cannot spin the
// simulation forever). Only a replica that never came up counts: one lost
// while running proved the partition can host it, and is replaced freely.
const maxReplaceAttempts = 3

type replState int

const (
	replStarting replState = iota
	replIdle
	replBusy
	replDead
)

type replica struct {
	uid       string
	state     replState
	stop      func()
	batch     []*request
	up        bool
	upAt      sim.Time
	busySince sim.Time
	busyTotal sim.Duration
	served    uint64
}

type request struct {
	uid        string
	task       string
	issued     sim.Time
	dispatched sim.Time
	done       func(at sim.Time, failed bool)
}

// Endpoint is one deployed inference service.
type Endpoint struct {
	desc   spec.ServiceDescription
	params model.ServiceParams
	eng    *sim.Engine
	prof   *profiler.Profiler
	rand   *rng.Stream
	launch LaunchFunc

	queue    []*request
	replicas []*replica
	reqSeq   int
	repSeq   int

	closed bool
	broken bool
	// failStreak counts consecutive failed replica launches.
	failStreak int

	lastScaleUp   sim.Time
	lastScaleDown sim.Time
	windowTimer   sim.Timer
	upTimer       sim.Timer
	downTimer     sim.Timer

	readyFns []func()
	ready    bool

	served       uint64
	failed       uint64
	peakQueue    int
	peakReplicas int
	// deadAliveTotal / deadBusyTotal accumulate the alive and busy spans
	// of removed replicas for the utilization metric.
	deadAliveTotal sim.Duration
	deadBusyTotal  sim.Duration

	replicaSeries metrics.Series
	events        []ScaleEvent
}

// NewEndpoint begins deploying the initial replicas of a valid description
// (the agent's service manager validates it) through launch.
func NewEndpoint(sd spec.ServiceDescription, params model.ServiceParams, eng *sim.Engine,
	prof *profiler.Profiler, stream *rng.Stream, launch LaunchFunc) *Endpoint {

	never := sim.Time(-1 << 60)
	e := &Endpoint{
		desc:          sd,
		params:        params,
		eng:           eng,
		prof:          prof,
		rand:          stream,
		launch:        launch,
		lastScaleUp:   never,
		lastScaleDown: never,
		replicaSeries: metrics.Series{Name: sd.Name + ".replicas"},
	}
	for i := 0; i < sd.Replicas; i++ {
		e.launchReplica()
	}
	return e
}

// Name returns the endpoint name tasks address.
func (e *Endpoint) Name() string { return e.desc.Name }

// Replicas returns the current replica count (starting, idle or busy).
func (e *Endpoint) Replicas() int { return e.countAlive() }

// Ready registers fn to fire once the endpoint's fate is decided: the
// first replica is warm, or every launch attempt failed and the endpoint
// is broken, so gated clients run and observe failing requests rather
// than never running. Fires immediately if decided.
func (e *Endpoint) Ready(fn func()) {
	if e.ready {
		e.eng.Immediately(fn)
		return
	}
	e.readyFns = append(e.readyFns, fn)
}

// Submit issues one inference request. taskUID tags the issuing task in
// the request trace (empty for external clients). done fires when the
// response returns — or immediately with failed=true if the endpoint is
// closed or broken. It returns the request UID.
func (e *Endpoint) Submit(taskUID string, done func(at sim.Time, failed bool)) string {
	uid := fmt.Sprintf("%s.req.%06d", e.desc.Name, e.reqSeq)
	e.reqSeq++
	r := &request{uid: uid, task: taskUID, done: done}
	// The client→endpoint hop shares the allocation's node-local fabric.
	e.eng.After(sim.Seconds(e.params.RPCLatency), func() {
		if e.closed || e.broken {
			e.failRequest(r, e.eng.Now())
			return
		}
		r.issued = e.eng.Now()
		e.queue = append(e.queue, r)
		if len(e.queue) > e.peakQueue {
			e.peakQueue = len(e.queue)
		}
		e.pump()
		e.considerScaleUp()
	})
	return uid
}

// Close drains the endpoint: queued requests are still served, new ones
// fail, and replicas stop as they go idle with an empty queue.
func (e *Endpoint) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.upTimer.Stop()
	e.downTimer.Stop()
	if len(e.queue) > 0 {
		// Drain mode: stop holding under-full batches open — dispatch
		// what is queued now; completeBatch stops replicas once empty.
		e.windowTimer.Stop()
		e.pump()
	}
	if len(e.queue) == 0 {
		e.stopIdleReplicas()
	}
}

// stopIdleReplicas retires every idle replica (iterating a copy:
// stopReplica mutates the slice).
func (e *Endpoint) stopIdleReplicas() {
	reps := append([]*replica(nil), e.replicas...)
	for _, rep := range reps {
		if rep.state == replIdle {
			e.stopReplica(rep)
		}
	}
}

// --- replica lifecycle ---

func (e *Endpoint) launchReplica() {
	uid := fmt.Sprintf("svc.%s.%03d", e.desc.Name, e.repSeq)
	e.repSeq++
	rep := &replica{uid: uid, state: replStarting}
	e.replicas = append(e.replicas, rep)
	if n := e.countAlive(); n > e.peakReplicas {
		e.peakReplicas = n
	}
	e.sample()
	e.launch(uid, ReplicaCallbacks{
		Up:   func(stop func()) { e.replicaUp(rep, stop) },
		Down: func(failed bool, reason string) { e.replicaDown(rep, failed, reason) },
	})
}

func (e *Endpoint) replicaUp(rep *replica, stop func()) {
	if rep.state != replStarting {
		stop()
		return
	}
	rep.stop = stop
	rep.up = true
	rep.upAt = e.eng.Now()
	rep.state = replIdle
	e.failStreak = 0
	e.markReady()
	if e.closed && len(e.queue) == 0 {
		e.stopReplica(rep)
		return
	}
	e.pump()
}

// stopReplica requests a graceful stop of an idle or starting replica;
// replicaDown finishes the bookkeeping when its task finalizes.
func (e *Endpoint) stopReplica(rep *replica) {
	if rep.state == replDead || rep.state == replBusy {
		return
	}
	stop := rep.stop
	rep.stop = nil
	if rep.state == replStarting {
		// Not up yet: replicaUp will observe the dead state and stop it.
		rep.state = replDead
		e.removeReplica(rep)
		return
	}
	rep.state = replDead
	e.removeReplica(rep)
	if stop != nil {
		stop()
	}
}

func (e *Endpoint) removeReplica(rep *replica) {
	if rep.up {
		e.deadAliveTotal += e.eng.Now().Sub(rep.upAt)
		e.deadBusyTotal += rep.busyTotal
	}
	for i, r := range e.replicas {
		if r == rep {
			e.replicas = append(e.replicas[:i], e.replicas[i+1:]...)
			break
		}
	}
	e.sample()
}

func (e *Endpoint) replicaDown(rep *replica, failed bool, reason string) {
	wasDead := rep.state == replDead
	alive := e.countAlive()
	// A batch in flight on a failed replica goes back to the queue head:
	// the requests are retried on surviving replicas and their latency
	// absorbs the lost work.
	if rep.batch != nil {
		e.queue = append(append([]*request{}, rep.batch...), e.queue...)
		rep.batch = nil
		if e.broken {
			// No capacity is ever coming back; fail instead of strand.
			q := e.queue
			e.queue = nil
			for _, r := range q {
				e.failRequest(r, e.eng.Now())
			}
		}
	}
	if !wasDead {
		rep.state = replDead
		rep.stop = nil
		e.removeReplica(rep)
	}
	if failed && !e.closed && !e.broken {
		if !rep.up {
			e.failStreak++
			if e.failStreak > maxReplaceAttempts {
				e.breakEndpoint()
				return
			}
		}
		// Keep capacity: replace the lost replica.
		e.events = append(e.events, ScaleEvent{
			At: e.eng.Now(), From: alive, To: alive,
			Reason: "replace failed replica: " + reason,
		})
		e.launchReplica()
	}
	e.pump()
	e.considerScaleDown()
}

// breakEndpoint gives up after repeated launch failures: every queued
// request fails so coupled tasks unblock instead of deadlocking, and
// Ready waiters fire so clients gated on readiness observe the failure
// (through failing requests) instead of silently never running.
func (e *Endpoint) breakEndpoint() {
	e.broken = true
	q := e.queue
	e.queue = nil
	now := e.eng.Now()
	for _, r := range q {
		e.failRequest(r, now)
	}
	reps := append([]*replica(nil), e.replicas...)
	for _, rep := range reps {
		if rep.state == replIdle || rep.state == replStarting {
			e.stopReplica(rep)
		}
	}
	e.markReady()
}

// markReady fires Ready waiters once the endpoint's fate is decided
// (first replica warm, or broken).
func (e *Endpoint) markReady() {
	if e.ready {
		return
	}
	e.ready = true
	fns := e.readyFns
	e.readyFns = nil
	for _, fn := range fns {
		e.eng.Immediately(fn)
	}
}

func (e *Endpoint) failRequest(r *request, at sim.Time) {
	e.failed++
	issued := r.issued
	if issued == 0 {
		issued = at // failed before ever entering the queue
	}
	e.prof.Request(profiler.RequestTrace{
		UID: r.uid, Service: e.desc.Name, Task: r.task,
		Issued: issued, Dispatched: at, Done: at, Failed: true,
	})
	done := r.done
	e.eng.Immediately(func() { done(at, true) })
}

// --- batching and dispatch ---

// pump forms batches against idle replicas: a full batch dispatches
// immediately; an under-full one waits until the head request has aged
// BatchWindow. With no idle replica, requests accumulate and the next
// completion forms a naturally larger batch — dynamic batching exactly as
// serving engines do it.
func (e *Endpoint) pump() {
	for len(e.queue) > 0 {
		rep := e.idleReplica()
		if rep == nil {
			return
		}
		n := len(e.queue)
		cap := e.desc.BatchCap()
		if n > cap {
			n = cap
		}
		// A closing endpoint stops waiting for stragglers: partial
		// batches dispatch immediately so the queue drains.
		if n < cap && e.desc.BatchWindow > 0 && !e.closed {
			deadline := e.queue[0].issued.Add(e.desc.BatchWindow)
			if e.eng.Now() < deadline {
				if !e.windowTimer.Pending() {
					e.windowTimer = e.eng.At(deadline, e.pump)
				}
				return
			}
		}
		batch := e.queue[:n:n]
		e.queue = e.queue[n:]
		e.dispatch(rep, batch)
	}
}

func (e *Endpoint) idleReplica() *replica {
	for _, rep := range e.replicas {
		if rep.state == replIdle {
			return rep
		}
	}
	return nil
}

func (e *Endpoint) dispatch(rep *replica, batch []*request) {
	now := e.eng.Now()
	rep.state = replBusy
	rep.batch = batch
	rep.busySince = now
	for _, r := range batch {
		r.dispatched = now
	}
	// Batch service time: dispatch overhead plus the jittered latency
	// model Base + (n-1)·PerItem.
	lat := e.desc.BatchLatency(len(batch)).Seconds()
	if e.desc.LatencySigma > 0 {
		lat = e.rand.LogNormal(lat, e.desc.LatencySigma)
	}
	d := sim.Seconds(e.params.DispatchOverhead + lat)
	e.eng.After(d, func() { e.completeBatch(rep) })
}

func (e *Endpoint) completeBatch(rep *replica) {
	if rep.state != replBusy || rep.batch == nil {
		return // replica died mid-batch; requests were re-queued
	}
	now := e.eng.Now()
	batch := rep.batch
	rep.batch = nil
	rep.busyTotal += now.Sub(rep.busySince)
	rep.served += uint64(len(batch))
	rep.state = replIdle
	for _, r := range batch {
		e.served++
		rt := profiler.RequestTrace{
			UID: r.uid, Service: e.desc.Name, Replica: rep.uid, Task: r.task,
			Issued: r.issued, Dispatched: r.dispatched, Done: now,
			Batch: len(batch),
		}
		if r.dispatched > r.issued {
			// The queue wait just resolved: a request batched behind the
			// batch leader waited on batch formation; a lone request
			// waited for a replica to come free.
			kind, ref := profiler.EdgeReplica, rep.uid
			if len(batch) > 1 && r != batch[0] {
				kind, ref = profiler.EdgeBatch, batch[0].uid
			}
			rt.AddEdge(profiler.CausalEdge{Kind: kind, From: r.issued, To: r.dispatched, Ref: ref})
		}
		e.prof.Request(rt)
		done := r.done
		e.eng.Immediately(func() { done(now, false) })
	}
	if (e.closed || e.broken) && len(e.queue) == 0 {
		// Retire every idle replica, not just this one: surplus
		// replicas a draining endpoint never dispatched to must not
		// outlive it holding slots.
		e.stopIdleReplicas()
		return
	}
	e.pump()
	e.considerScaleDown()
}

// --- autoscaler (event-driven: evaluated on arrivals and completions,
// with cooldown-deferred re-checks, so an idle simulation schedules no
// perpetual timers and the event queue can drain) ---

func (e *Endpoint) considerScaleUp() {
	if e.closed || e.broken || !e.desc.Autoscaled() {
		return
	}
	alive := e.countAlive()
	if alive >= e.desc.CeilReplicas() {
		return
	}
	if alive > 0 && float64(len(e.queue)) <= e.desc.TargetQueue()*float64(alive) {
		return
	}
	now := e.eng.Now()
	if wait := e.lastScaleUp.Add(e.desc.Cooldown()); now < wait {
		if !e.upTimer.Pending() {
			e.upTimer = e.eng.At(wait, e.considerScaleUp)
		}
		return
	}
	// Proportional sizing (HPA-style): jump straight to the replica
	// count the current queue demands, instead of one step per cooldown.
	desired := int(math.Ceil(float64(len(e.queue)) / e.desc.TargetQueue()))
	if desired <= alive {
		desired = alive + 1
	}
	if ceil := e.desc.CeilReplicas(); desired > ceil {
		desired = ceil
	}
	e.lastScaleUp = now
	e.events = append(e.events, ScaleEvent{
		At: now, From: alive, To: desired,
		Reason: fmt.Sprintf("queue %d > %.0f/replica", len(e.queue), e.desc.TargetQueue()),
	})
	for i := alive; i < desired; i++ {
		e.launchReplica()
	}
}

func (e *Endpoint) considerScaleDown() {
	if e.closed || e.broken || !e.desc.Autoscaled() {
		return
	}
	alive := e.countAlive()
	idle := 0
	for _, rep := range e.replicas {
		if rep.state == replIdle {
			idle++
		}
	}
	// Shrink only when the queue is empty and at least two replicas sit
	// idle (one warm spare is kept for the next burst).
	if len(e.queue) > 0 || alive <= e.desc.FloorReplicas() || idle < 2 {
		return
	}
	// The cooldown holds scale-downs after actions in *either* direction:
	// shrinking moments after growing is thrash, not elasticity.
	now := e.eng.Now()
	last := e.lastScaleDown
	if e.lastScaleUp > last {
		last = e.lastScaleUp
	}
	if wait := last.Add(e.desc.Cooldown()); now < wait {
		if !e.downTimer.Pending() {
			e.downTimer = e.eng.At(wait, e.considerScaleDown)
		}
		return
	}
	e.lastScaleDown = now
	var victim *replica
	for _, rep := range e.replicas {
		if rep.state == replIdle {
			victim = rep // oldest idle replica retires first
			break
		}
	}
	e.events = append(e.events, ScaleEvent{
		At: now, From: alive, To: alive - 1, Reason: "idle",
	})
	e.stopReplica(victim)
}

func (e *Endpoint) countAlive() int {
	n := 0
	for _, rep := range e.replicas {
		if rep.state != replDead {
			n++
		}
	}
	return n
}

// --- metrics ---

// sample records the replica count. Its only callers are launchReplica and
// removeReplica, so the count changes by one at every call; queue depth
// over time derives from request traces.
func (e *Endpoint) sample() {
	e.replicaSeries.Points = append(e.replicaSeries.Points,
		metrics.Point{T: e.eng.Now(), V: float64(e.countAlive())})
}

// ReplicaSeries returns the replica-count timeline (the autoscaling
// staircase).
func (e *Endpoint) ReplicaSeries(maxPoints int) metrics.Series {
	return metrics.Downsample(e.replicaSeries, maxPoints)
}

// Stats is a point-in-time summary of the endpoint.
type Stats struct {
	Name     string
	Served   uint64
	Failed   uint64
	Replicas int
	// PeakReplicas / PeakQueue are lifetime maxima.
	PeakReplicas int
	PeakQueue    int
	// Latency is the client-observed request latency distribution;
	// QueueWait isolates time spent queued and batching.
	Latency   metrics.LatencySummary
	QueueWait metrics.LatencySummary
	// MeanBatch is the request-weighted mean batch size; Occupancy is
	// MeanBatch normalized by the configured MaxBatch.
	MeanBatch float64
	Occupancy float64
	// Utilization is busy replica-time over alive replica-time.
	Utilization float64
	ScaleEvents []ScaleEvent
}

// Stats summarizes the endpoint from its request traces and replica
// accounting.
func (e *Endpoint) Stats() Stats {
	reqs := e.prof.RequestsFor(e.desc.Name)
	st := Stats{
		Name:         e.desc.Name,
		Served:       e.served,
		Failed:       e.failed,
		Replicas:     e.countAlive(),
		PeakReplicas: e.peakReplicas,
		PeakQueue:    e.peakQueue,
		Latency:      metrics.SummarizeLatencies(metrics.RequestLatencies(reqs)),
		QueueWait:    metrics.SummarizeLatencies(metrics.QueueWaits(reqs)),
		Occupancy:    metrics.BatchOccupancy(reqs, e.desc.BatchCap()),
		ScaleEvents:  e.events,
	}
	st.MeanBatch = st.Occupancy * float64(e.desc.BatchCap())
	now := e.eng.Now()
	aliveTotal := e.deadAliveTotal
	busyTotal := e.deadBusyTotal
	for _, rep := range e.replicas {
		if !rep.up || rep.state == replDead {
			continue
		}
		aliveTotal += now.Sub(rep.upAt)
		busyTotal += rep.busyTotal
		if rep.state == replBusy {
			busyTotal += now.Sub(rep.busySince)
		}
	}
	if aliveTotal > 0 {
		st.Utilization = busyTotal.Seconds() / aliveTotal.Seconds()
	}
	return st
}
