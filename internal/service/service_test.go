package service

import (
	"reflect"
	"testing"

	"rpgo/internal/model"
	"rpgo/internal/profiler"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// rig hosts an endpoint over a fake replica launcher: replicas come up
// after a fixed provisioning delay, with optional injected launch
// failures, and a test can kill the running ones, so endpoint logic is
// tested without the full agent stack.
type rig struct {
	eng      *sim.Engine
	prof     *profiler.Profiler
	launches int
	// failFirst makes the first n launches fail after the delay;
	// failWhen, when set, decides per launch ordinal instead.
	failFirst int
	failWhen  func(n int) bool
	// up holds every replica that came up, in the order it did.
	up []*rigReplica
}

// rigReplica is one replica that came up; gone is set once it stopped or
// was killed.
type rigReplica struct {
	down func(failed bool, reason string)
	gone bool
}

func (r *rig) launch(uid string, cb ReplicaCallbacks) {
	r.launches++
	n := r.launches
	r.eng.After(2*sim.Second, func() {
		fail := n <= r.failFirst
		if r.failWhen != nil {
			fail = r.failWhen(n)
		}
		if fail {
			cb.Down(true, "injected launch failure")
			return
		}
		rep := &rigReplica{down: cb.Down}
		r.up = append(r.up, rep)
		cb.Up(func() {
			if rep.gone {
				return
			}
			rep.gone = true
			r.eng.Immediately(func() { cb.Down(false, "") })
		})
	})
}

// killRunning fails every running replica at once, as the loss of the
// node under all of them would, and returns how many it killed.
func (r *rig) killRunning() int {
	n := 0
	for _, rep := range r.up {
		if !rep.gone {
			rep.gone = true
			rep.down(true, "node failed")
			n++
		}
	}
	return n
}

func baseDesc() spec.ServiceDescription {
	return spec.ServiceDescription{
		Name:           "llm",
		Replicas:       1,
		BaseLatency:    100 * sim.Millisecond,
		PerItemLatency: 20 * sim.Millisecond,
		BatchWindow:    50 * sim.Millisecond,
		MaxBatch:       4,
	}
}

func newRig(t *testing.T, sd spec.ServiceDescription, seed uint64) (*rig, *Endpoint) {
	t.Helper()
	r := &rig{eng: sim.NewEngine(), prof: profiler.New()}
	return r, NewEndpoint(sd, model.Default().Service, r.eng, r.prof,
		rng.New(seed).Stream("service.test"), r.launch)
}

func TestBatchingRespectsMaxAndWindow(t *testing.T) {
	r, ep := newRig(t, baseDesc(), 1)
	done := 0
	for i := 0; i < 10; i++ {
		ep.Submit("task", func(sim.Time, bool) { done++ })
	}
	r.eng.Run()
	if done != 10 {
		t.Fatalf("done = %d, want 10", done)
	}
	reqs := r.prof.RequestsFor("llm")
	if len(reqs) != 10 {
		t.Fatalf("traces = %d, want 10", len(reqs))
	}
	for _, rq := range reqs {
		if rq.Batch < 1 || rq.Batch > 4 {
			t.Fatalf("batch size %d outside [1,4]", rq.Batch)
		}
		if rq.Failed {
			t.Fatalf("request %s failed", rq.UID)
		}
		if rq.Dispatched < rq.Issued || rq.Done <= rq.Dispatched {
			t.Fatalf("trace out of order: %+v", rq)
		}
	}
	// 10 requests on one replica with MaxBatch 4 need at least 3 batches,
	// and the first batch must be full (queue piles up during startup).
	if reqs[0].Batch != 4 {
		t.Errorf("first batch = %d, want 4 (queue built up during replica startup)", reqs[0].Batch)
	}
	st := ep.Stats()
	if st.Served != 10 || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Occupancy <= 0 || st.Occupancy > 1 {
		t.Fatalf("occupancy = %v", st.Occupancy)
	}
}

func TestBatchWindowHoldsUnderfullBatch(t *testing.T) {
	sd := baseDesc()
	sd.BatchWindow = 200 * sim.Millisecond
	r, ep := newRig(t, sd, 2)
	// One lone request: it must wait out the window before dispatch.
	var served sim.Time
	ep.Submit("", func(at sim.Time, _ bool) { served = at })
	r.eng.Run()
	reqs := r.prof.RequestsFor("llm")
	if len(reqs) != 1 {
		t.Fatalf("traces = %d", len(reqs))
	}
	if w := reqs[0].QueueWait(); w < 200*sim.Millisecond {
		t.Fatalf("queue wait %v shorter than the 200ms batch window", w)
	}
	if served == 0 {
		t.Fatal("request never served")
	}
}

func TestAutoscaleUpAndDown(t *testing.T) {
	sd := baseDesc()
	sd.Replicas = 1
	sd.MinReplicas = 1
	sd.MaxReplicas = 4
	sd.TargetQueuePerReplica = 2
	sd.ScaleCooldown = sim.Second
	r, ep := newRig(t, sd, 3)
	// A burst deep enough to demand every replica.
	for i := 0; i < 60; i++ {
		ep.Submit("", func(sim.Time, bool) {})
	}
	r.eng.Run()
	evs := ep.events
	ups, downs := 0, 0
	for _, e := range evs {
		if e.To > e.From {
			ups++
		}
		if e.To < e.From {
			downs++
		}
	}
	if ups == 0 {
		t.Fatalf("no scale-up events: %v", evs)
	}
	if downs == 0 {
		t.Fatalf("no scale-down events after the burst drained: %v", evs)
	}
	st := ep.Stats()
	if st.PeakReplicas < 2 {
		t.Fatalf("peak replicas = %d, want >= 2", st.PeakReplicas)
	}
	if st.Served != 60 {
		t.Fatalf("served = %d", st.Served)
	}
	// The replica-count timeline must show the staircase.
	if s := ep.ReplicaSeries(0); s.Max() < 2 {
		t.Fatalf("replica series max = %v", s.Max())
	}
}

func TestBrokenEndpointFailsQueuedRequests(t *testing.T) {
	sd := baseDesc()
	r := &rig{eng: sim.NewEngine(), prof: profiler.New(), failFirst: 1 + maxReplaceAttempts}
	ep := NewEndpoint(sd, model.Default().Service, r.eng, r.prof,
		rng.New(4).Stream("service.test"), r.launch)
	failed := 0
	for i := 0; i < 5; i++ {
		ep.Submit("", func(_ sim.Time, f bool) {
			if f {
				failed++
			}
		})
	}
	r.eng.Run()
	if !ep.broken {
		t.Fatal("endpoint should be broken after repeated launch failures")
	}
	if failed != 5 {
		t.Fatalf("failed callbacks = %d, want 5 (no deadlocked clients)", failed)
	}
	// New submissions fail immediately too.
	post := false
	ep.Submit("", func(_ sim.Time, f bool) { post = f })
	r.eng.Run()
	if !post {
		t.Fatal("submission against a broken endpoint must fail")
	}
}

func TestCloseDrainsThenStopsReplicas(t *testing.T) {
	sd := baseDesc()
	sd.Replicas = 2
	r, ep := newRig(t, sd, 5)
	done := 0
	for i := 0; i < 6; i++ {
		ep.Submit("", func(_ sim.Time, f bool) {
			if !f {
				done++
			}
		})
	}
	// Close while the queue is still full: queued requests must still
	// serve, then replicas stop.
	r.eng.After(sim.Millisecond, ep.Close)
	r.eng.Run()
	if done != 6 {
		t.Fatalf("served = %d, want 6 (close must drain)", done)
	}
	if ep.Replicas() != 0 {
		t.Fatalf("replicas = %d after close, want 0", ep.Replicas())
	}
	// Requests after close fail.
	failed := false
	ep.Submit("", func(_ sim.Time, f bool) { failed = f })
	r.eng.Run()
	if !failed {
		t.Fatal("request after Close should fail")
	}
}

func TestReplicaFailureRequeuesBatch(t *testing.T) {
	// Replica 1 serves, then we kill it mid-batch via the Down callback
	// path by making the rig track stops... simpler: use two replicas and
	// fail the first launch — capacity is replaced and all requests still
	// serve exactly once.
	sd := baseDesc()
	sd.Replicas = 2
	r := &rig{eng: sim.NewEngine(), prof: profiler.New(), failFirst: 1}
	ep := NewEndpoint(sd, model.Default().Service, r.eng, r.prof,
		rng.New(6).Stream("service.test"), r.launch)
	done := 0
	for i := 0; i < 12; i++ {
		ep.Submit("", func(_ sim.Time, f bool) {
			if !f {
				done++
			}
		})
	}
	r.eng.Run()
	if done != 12 {
		t.Fatalf("served = %d, want 12", done)
	}
	if r.launches != 3 { // 2 initial + 1 replacement
		t.Fatalf("launches = %d, want 3", r.launches)
	}
}

// TestCloseWithWindowedRequestStillServes: a request held open by the
// batch window must not be stranded when Close stops the idle replica —
// Close dispatches partial batches immediately (regression test).
func TestCloseWithWindowedRequestStillServes(t *testing.T) {
	sd := baseDesc()
	sd.BatchWindow = 10 * sim.Second // far beyond the close time
	r, ep := newRig(t, sd, 8)
	served, failed := 0, 0
	ep.Submit("", func(_ sim.Time, f bool) {
		if f {
			failed++
		} else {
			served++
		}
	})
	// Close shortly after the request is queued (replica up at 2s).
	r.eng.At(sim.Time(3*sim.Second), ep.Close)
	r.eng.Run()
	if served != 1 || failed != 0 {
		t.Fatalf("served=%d failed=%d; windowed request stranded by Close", served, failed)
	}
	if ep.Replicas() != 0 {
		t.Fatalf("replicas = %d after drain", ep.Replicas())
	}
}

// TestCloseStopsSurplusIdleReplicas: when Close drains a short queue, the
// idle replicas that never got a batch must also retire — not just the
// one that served the tail (regression test).
func TestCloseStopsSurplusIdleReplicas(t *testing.T) {
	sd := baseDesc()
	sd.Replicas = 4
	r, ep := newRig(t, sd, 10)
	served := 0
	// Two requests: one batch on one replica; three replicas stay idle.
	r.eng.At(sim.Time(3*sim.Second), func() {
		for i := 0; i < 2; i++ {
			ep.Submit("", func(_ sim.Time, f bool) {
				if !f {
					served++
				}
			})
		}
	})
	// Close after the requests clear the RPC hop and sit queued in an
	// under-full batch, but before the 50ms batch window expires.
	r.eng.At(sim.Time(3*sim.Second)+sim.Time(2*sim.Millisecond), ep.Close)
	r.eng.Run()
	if served != 2 {
		t.Fatalf("served = %d, want 2", served)
	}
	if n := ep.Replicas(); n != 0 {
		t.Fatalf("replicas = %d after close drained, want 0 (surplus idle leak)", n)
	}
}

// TestReadyFiresOnBrokenEndpoint: clients gated on Ready must run even
// when every replica launch fails, observing failure through failing
// requests instead of silently never starting (regression test).
func TestReadyFiresOnBrokenEndpoint(t *testing.T) {
	sd := baseDesc()
	r := &rig{eng: sim.NewEngine(), prof: profiler.New(),
		failWhen: func(int) bool { return true }}
	ep := NewEndpoint(sd, model.Default().Service, r.eng, r.prof,
		rng.New(11).Stream("service.test"), r.launch)
	readyAt := sim.Time(-1)
	failedCall := false
	ep.Ready(func() {
		readyAt = r.eng.Now()
		ep.Submit("", func(_ sim.Time, f bool) { failedCall = f })
	})
	r.eng.Run()
	if readyAt < 0 {
		t.Fatal("Ready never fired on a broken endpoint — gated clients hang silently")
	}
	if !ep.broken {
		t.Fatal("endpoint should be broken")
	}
	if !failedCall {
		t.Fatal("request from the gated client should fail fast")
	}
}

// TestBrokenEndpointReleasesBusyReplica: a replica busy when the endpoint
// breaks must stop after its batch instead of idling forever on its
// allocation (regression test).
func TestBrokenEndpointReleasesBusyReplica(t *testing.T) {
	sd := baseDesc()
	sd.Replicas = 2
	// Launch 1 succeeds; every later launch (initial #2 and all
	// replacements) fails, so the endpoint breaks while replica 1 works
	// through a deep queue.
	r := &rig{eng: sim.NewEngine(), prof: profiler.New(),
		failWhen: func(n int) bool { return n != 1 }}
	ep := NewEndpoint(sd, model.Default().Service, r.eng, r.prof,
		rng.New(9).Stream("service.test"), r.launch)
	served, failed := 0, 0
	for i := 0; i < 300; i++ {
		ep.Submit("", func(_ sim.Time, f bool) {
			if f {
				failed++
			} else {
				served++
			}
		})
	}
	r.eng.Run() // completing at all proves nothing deadlocked
	if !ep.broken {
		t.Fatal("endpoint should be broken")
	}
	if ep.Replicas() != 0 {
		t.Fatalf("replicas = %d on a broken endpoint, want 0 (slots released)", ep.Replicas())
	}
	if served+failed != 300 {
		t.Fatalf("served=%d failed=%d, %d requests unaccounted",
			served, failed, 300-served-failed)
	}
	if served == 0 || failed == 0 {
		t.Fatalf("expected a mix of served and failed, got %d/%d", served, failed)
	}
}

// TestDeterministicRequestTrace: same seed, same arrival pattern — the
// request latency trace must be bit-for-bit identical.
func TestDeterministicRequestTrace(t *testing.T) {
	run := func() []profiler.RequestTrace {
		sd := baseDesc()
		sd.LatencySigma = 0.3
		sd.MaxReplicas = 3
		sd.MinReplicas = 1
		sd.ScaleCooldown = sim.Second
		r, ep := newRig(t, sd, 99)
		arrivals := rng.New(7).Stream("arrivals")
		var submit func(i int)
		submit = func(i int) {
			if i >= 50 {
				return
			}
			ep.Submit("", func(sim.Time, bool) {})
			r.eng.After(sim.Seconds(arrivals.Exp(0.05)), func() { submit(i + 1) })
		}
		submit(0)
		r.eng.Run()
		return r.prof.RequestsFor("llm")
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("trace %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestLostRunningReplicasAreReplaced: losing running replicas is not a
// failed launch. One node failure kills all four replicas of an endpoint;
// each is replaced, the endpoint stays up, and later requests are served.
func TestLostRunningReplicasAreReplaced(t *testing.T) {
	sd := baseDesc()
	sd.Replicas = 4
	r, ep := newRig(t, sd, 12)
	r.eng.At(sim.Time(5*sim.Second), func() {
		if n := r.killRunning(); n != 4 {
			t.Errorf("killed %d running replicas, want 4", n)
		}
	})
	served, failed := 0, 0
	r.eng.At(sim.Time(20*sim.Second), func() {
		for i := 0; i < 8; i++ {
			ep.Submit("", func(_ sim.Time, f bool) {
				if f {
					failed++
				} else {
					served++
				}
			})
		}
	})
	r.eng.Run()
	if ep.broken {
		t.Fatal("endpoint broke after losing running replicas; only failed launches count")
	}
	if r.launches != 8 || ep.Replicas() != 4 {
		t.Fatalf("launches = %d, replicas = %d; want 4 initial + 4 replacements, 4 up", r.launches, ep.Replicas())
	}
	if served != 8 || failed != 0 {
		t.Fatalf("served %d, failed %d after the loss; want 8 and 0", served, failed)
	}
}

// TestBrokenEndpointFailsKilledBatch: a replica lost mid-batch after the
// endpoint broke cannot hand its batch back to a queue no replica will
// serve, so the batch's requests fail at once.
func TestBrokenEndpointFailsKilledBatch(t *testing.T) {
	sd := baseDesc()
	sd.Replicas = 2
	r := &rig{eng: sim.NewEngine(), prof: profiler.New(),
		failWhen: func(n int) bool { return n != 1 }}
	ep := NewEndpoint(sd, model.Default().Service, r.eng, r.prof,
		rng.New(13).Stream("service.test"), r.launch)
	served, failed := 0, 0
	var lastFail sim.Time
	for i := 0; i < 300; i++ {
		ep.Submit("", func(at sim.Time, f bool) {
			if f {
				failed++
				lastFail = at
			} else {
				served++
			}
		})
	}
	// The fourth failed launch breaks the endpoint at 8 s, while replica 1
	// still works through the queue.
	kill := sim.Time(8*sim.Second) + 1
	r.eng.At(kill, func() {
		if !ep.broken {
			t.Error("endpoint not broken at the kill")
		}
		if n := r.killRunning(); n != 1 {
			t.Errorf("killed %d replicas, want replica 1", n)
		}
	})
	r.eng.Run()
	if served+failed != 300 || ep.Replicas() != 0 {
		t.Fatalf("served %d + failed %d of 300, %d replicas left", served, failed, ep.Replicas())
	}
	if lastFail != kill {
		t.Fatalf("last request failed at %v, want the killed batch at %v", lastFail, kill)
	}
}

// TestReplicaLifecycleEdges: Ready on a ready endpoint fires at once, a
// second Close does nothing, a replica that comes up after Close with
// nothing queued stops at once, and a broken endpoint stops the replica it
// is still launching, which then stops as soon as it comes up.
func TestReplicaLifecycleEdges(t *testing.T) {
	r, ep := newRig(t, baseDesc(), 14)
	r.eng.Run()
	fired := false
	ep.Ready(func() { fired = true })
	r.eng.Run()
	if !fired {
		t.Fatal("Ready on a ready endpoint never fired")
	}

	sd := baseDesc()
	sd.Replicas = 2
	r, ep = newRig(t, sd, 15)
	ep.Close()
	ep.Close()
	r.eng.Run()
	if len(r.up) != 2 || ep.Replicas() != 0 {
		t.Fatalf("closed while starting: %d came up, %d left; want 2 and 0", len(r.up), ep.Replicas())
	}
	for i, rep := range r.up {
		if !rep.gone {
			t.Fatalf("replica %d stayed up on a closed endpoint", i)
		}
	}

	// Launches 1–4 fail: 1 and 2 at 2 s, their replacements 3 and 4 at
	// 4 s, the last of them breaking the endpoint while 5 is starting.
	r = &rig{eng: sim.NewEngine(), prof: profiler.New(), failFirst: 4}
	ep = NewEndpoint(sd, model.Default().Service, r.eng, r.prof,
		rng.New(16).Stream("service.test"), r.launch)
	r.eng.Run()
	if !ep.broken || r.launches != 5 || ep.Replicas() != 0 {
		t.Fatalf("broken %v, launches %d, replicas %d; want broken, 5 and 0",
			ep.broken, r.launches, ep.Replicas())
	}
	if len(r.up) != 1 || !r.up[0].gone {
		t.Fatal("the replica launched before the endpoint broke was not stopped when it came up")
	}
}
