package launch

import (
	"fmt"

	"rpgo/internal/platform"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// Stepper starts srun job steps under the machine's srun concurrency
// ceiling (slurm.Controller). started fires once the step may exec, with
// the release the caller must invoke exactly once when the srun exits.
type Stepper interface {
	StartStep(allocNodes, stepNodes int, started func(release func()))
}

// Config binds a launcher to its partition and to its backend's cost
// model: the hop latencies and the hooks below.
type Config struct {
	Name    string
	Backend spec.Backend
	Engine  *sim.Engine
	// Ctrl runs the bootstrap step of srun-launched instances.
	Ctrl Stepper
	Part *platform.Allocation

	// SubmitLatency is the hop a submit crosses before it reaches the
	// instance (Flux's RPC, Dragon's shmem pipe); zero submits
	// synchronously. CompleteLatency is the hop a completion crosses after
	// the process ends and its slots are released (Dragon's shmem queue).
	SubmitLatency   sim.Duration
	CompleteLatency sim.Duration
	// StartupTimeout, when positive, fails the instance for good if a boot
	// attempt has not come up in time (Dragon).
	StartupTimeout sim.Duration

	// Bootstrap draws one boot attempt: how long the srun-launched
	// instance takes to come up (negative: it hangs and never does); the
	// instance holds one Ctrl ceiling slot while it lives. Nil for a
	// backend with no instance process (srun itself), which is ready at
	// once and cannot crash.
	Bootstrap func() sim.Duration
	// Up, when set, runs as a boot attempt completes, before the Ready
	// callbacks are scheduled.
	Up func()
	// Launch carries a placed request through the backend's launch
	// pipeline, which ends with ExecAfter. The default scheduling pass
	// hands it every request that places, in queue order.
	Launch func(r *Request)
	// Schedule, when set, replaces the default scheduling pass (Flux's
	// token-bucket broker loop, which pops requests with Next).
	Schedule func()
}

// Launcher is the task runtime lifecycle every backend shares: the queue
// and placer over its partition, the running list, start and finish
// bookkeeping, the srun-held bootstrap with its Ready fan-out, and the
// failure paths (Drain, Crash, Restart, FailNode). A backend is a cost
// model over it, supplied through Config. Submit may be called before the
// instance finished bootstrapping; requests queue and run once it is up.
type Launcher struct {
	cfg     Config
	eng     *sim.Engine
	plc     *Placer
	queue   Queue
	running []*Request
	// placed counts the requests holding a placement: in the launch
	// pipeline or running. A drained instance gives its srun slot back
	// once it reaches zero.
	placed int
	stats  Stats

	ready       bool
	readyFns    []func()
	t0          sim.Time
	bootstrap   sim.Duration
	releaseSrun func()
	timeout     sim.Timer
	// gen is the boot generation. Crash bumps it, so every continuation of
	// an earlier boot attempt (its srun grant, ready event and startup
	// timeout) and every request placed under one is recognised as stale
	// and cannot act on a restarted instance.
	gen     int32
	crashed bool
	failed  bool
	drained bool

	// Prebound hot-path callbacks for the engine's pooled events, and
	// endFn, the end every Body receives, bound on the first Body: a
	// launcher that runs only plain tasks pays nothing for it.
	arrivedFn func(any)
	execFn    func(any)
	doneFn    func(any)
	hopFn     func(any)
	endFn     func(*Request)

	// OnException, when set, receives instance-level failures (crash,
	// bootstrap timeout); the agent maps them into failover.
	OnException func(reason string)
}

// New returns a launcher over cfg.Part. Backends with a Bootstrap hook call
// Boot once their own state is wired; the others are ready at once.
func New(cfg Config) *Launcher {
	l := &Launcher{cfg: cfg, eng: cfg.Engine, plc: NewPlacer(cfg.Part), ready: cfg.Bootstrap == nil}
	l.arrivedFn = func(arg any) { l.arrived(arg.(*Request)) }
	l.execFn = func(arg any) { l.exec(arg.(*Request)) }
	l.doneFn = l.done
	l.hopFn = l.complete
	return l
}

// Name identifies the instance (e.g. "flux.2").
func (l *Launcher) Name() string { return l.cfg.Name }

// Backend reports the runtime system type.
func (l *Launcher) Backend() spec.Backend { return l.cfg.Backend }

// Nodes reports the partition size in nodes.
func (l *Launcher) Nodes() int { return l.cfg.Part.Size() }

// Partition returns the launcher's resource partition.
func (l *Launcher) Partition() *platform.Allocation { return l.cfg.Part }

// BootstrapOverhead reports the last boot attempt's duration; valid after
// Ready fired.
func (l *Launcher) BootstrapOverhead() sim.Duration { return l.bootstrap }

// Crashed reports whether the instance is down.
func (l *Launcher) Crashed() bool { return l.crashed }

// Live reports whether the instance is booted and not crashed: the only
// state in which it may place and start work. A restarted instance is not
// live until its new boot completes.
func (l *Launcher) Live() bool { return l.ready && !l.crashed }

// Failed reports whether a boot attempt timed out, which is permanent.
func (l *Launcher) Failed() bool { return l.failed }

// Queued returns the number of requests waiting for placement.
func (l *Launcher) Queued() int { return l.queue.Len() }

// Stats returns current counters.
func (l *Launcher) Stats() Stats {
	st := l.stats
	st.QueueLen = l.queue.Len()
	return st
}

// Telemetry returns the placement counters and queue high-water.
func (l *Launcher) Telemetry() Telemetry {
	return Telemetry{Placer: l.plc.Stats(), QueueHighWater: l.queue.HighWater()}
}

// AttachPhase forwards the placer's wall-clock samples to a self-profiler.
func (l *Launcher) AttachPhase(fn sim.PhaseFunc) { l.plc.Phase = fn }

// Ready registers a callback invoked once bootstrap completes (or
// immediately if the instance is already up).
func (l *Launcher) Ready(fn func()) {
	if l.ready {
		l.eng.Immediately(fn)
		return
	}
	l.readyFns = append(l.readyFns, fn)
}

// Boot starts a boot attempt. Restart calls it again after a crash.
func (l *Launcher) Boot() {
	l.t0 = l.eng.Now()
	gen := l.gen
	if l.cfg.StartupTimeout > 0 {
		// A hung runtime must not stall RP (§3.2.2).
		l.timeout = l.eng.After(l.cfg.StartupTimeout, func() {
			if l.gen == gen && !l.ready {
				l.failed = true
				l.Crash(l.cfg.Name + " bootstrap timed out")
			}
		})
	}
	d := l.cfg.Bootstrap()
	if d < 0 {
		return // hangs; the startup timeout fires instead
	}
	up := func() {
		if l.gen == gen {
			l.up()
		}
	}
	// One srun brings up the whole instance and holds its ceiling slot for
	// the instance's lifetime; the step's wait counts toward bootstrap.
	l.cfg.Ctrl.StartStep(l.Nodes(), 1, func(release func()) {
		if l.gen != gen {
			release() // the attempt that asked for this step crashed
			return
		}
		l.releaseSrun = release
		l.releaseIfDrained()
		left := sim.Duration(0)
		if spent := l.eng.Now().Sub(l.t0); spent < d {
			left = d - spent
		}
		l.eng.After(left, up)
	})
}

func (l *Launcher) up() {
	l.timeout.Stop()
	l.ready = true
	l.bootstrap = l.eng.Now().Sub(l.t0)
	if l.cfg.Up != nil {
		l.cfg.Up()
	}
	fns := l.readyFns
	l.readyFns = nil
	for _, fn := range fns {
		l.eng.Immediately(fn)
	}
	l.Kick()
}

// Submit enqueues a task launch, after the backend's submit hop if any.
func (l *Launcher) Submit(r *Request) {
	if l.cfg.SubmitLatency > 0 {
		l.eng.AfterCall(l.cfg.SubmitLatency, l.arrivedFn, r)
		return
	}
	l.arrived(r)
}

// arrived runs when a submit reaches the instance.
func (l *Launcher) arrived(r *Request) {
	l.stats.Submitted++
	switch {
	case l.crashed:
		l.fail(r, l.cfg.Name+" down")
	case l.drained:
		l.fail(r, "launcher drained")
	case !l.plc.Fits(r.TD):
		l.fail(r, fmt.Sprintf("task %s cannot fit %s partition of %d nodes", r.UID, l.cfg.Name, l.Nodes()))
	default:
		r.Enqueue(l.eng.Now())
		l.queue.Push(r)
		l.Kick()
	}
}

// Kick runs a scheduling pass. Submits, completions and bootstrap kick
// on their own; external capacity changes (a restored node) must kick too.
func (l *Launcher) Kick() {
	if !l.Live() {
		return
	}
	if l.cfg.Schedule != nil {
		l.cfg.Schedule()
		return
	}
	// FCFS with head-of-line blocking, except that tasks whose input data
	// sits on a free node may jump the queue (the placer's affinity pass).
	for l.queue.Len() > 0 {
		r := l.Next(0)
		if r == nil {
			return
		}
		l.cfg.Launch(r)
	}
}

// Next places and dequeues the next request (data affinity, then FCFS,
// then up to backfill requests past a blocked head), returning it with its
// placement claimed, or nil when nothing can place now.
func (l *Launcher) Next(backfill int) *Request {
	r := l.plc.PopNext(l.eng.Now(), &l.queue, backfill)
	if r != nil {
		l.placed++
		r.gen = l.gen
	}
	return r
}

// Dropped reports whether the instance crashed while r was in its launch
// pipeline, restarted since or not; if so, r's slots are released and r
// failed. Pipeline stages check it before drawing further costs.
func (l *Launcher) Dropped(r *Request) bool {
	if r.gen == l.gen {
		return false
	}
	l.placed--
	l.cfg.Part.Release(l.eng.Now(), &r.Pl)
	l.fail(r, l.cfg.Name+" down")
	return true
}

// ExecAfter starts r's process after d, the last stage of every launch
// pipeline.
func (l *Launcher) ExecAfter(d sim.Duration, r *Request) {
	l.eng.AfterCall(d, l.execFn, r)
}

func (l *Launcher) exec(r *Request) {
	if l.Dropped(r) {
		return
	}
	now := l.eng.Now()
	l.stats.Started++
	r.runIdx = len(l.running)
	l.running = append(l.running, r)
	r.Events.OnStart(now)
	if r.Body == nil {
		// The fixed-duration task, the common case: a sleep through the
		// engine's pooled arg-carrying event.
		l.eng.AfterCall(r.TD.Duration, l.doneFn, r)
		return
	}
	if l.endFn == nil {
		l.endFn = l.end
	}
	r.Body(r, l.endFn)
}

// end is the completion a request's Body calls: done, in an engine event
// of its own.
func (l *Launcher) end(r *Request) { l.eng.ImmediatelyCall(l.doneFn, r) }

// done runs when a request's process body ends. Only the first call for a
// request takes effect: a later one, from a body that ended twice or from
// a body whose request a crash or node failure killed, finds it no longer
// running and is inert.
func (l *Launcher) done(arg any) {
	r := arg.(*Request)
	if r.runIdx < 0 {
		return
	}
	l.removeRunning(r)
	l.release(r)
	if l.cfg.CompleteLatency > 0 {
		l.eng.AfterCall(l.cfg.CompleteLatency, l.hopFn, r)
	} else {
		l.complete(r)
	}
	l.Kick()
	l.releaseIfDrained()
}

// complete delivers a successful completion.
func (l *Launcher) complete(arg any) {
	r := arg.(*Request)
	l.stats.Completed++
	r.Events.OnComplete(l.eng.Now(), false, "")
}

// release returns a request's slots (and its srun ceiling slot, if it
// holds one) once it stops running.
func (l *Launcher) release(r *Request) {
	l.placed--
	l.cfg.Part.Release(l.eng.Now(), &r.Pl)
	if r.Release != nil {
		r.Release()
		r.Release = nil
	}
}

// removeRunning swap-deletes a request from the running list in O(1).
func (l *Launcher) removeRunning(r *Request) {
	last := len(l.running) - 1
	moved := l.running[last]
	l.running[r.runIdx] = moved
	moved.runIdx = r.runIdx
	l.running[last] = nil
	l.running = l.running[:last]
	r.runIdx = -1
}

func (l *Launcher) fail(r *Request, reason string) {
	l.stats.Failed++
	at := l.eng.Now()
	l.eng.Immediately(func() { r.Events.OnComplete(at, true, reason) })
}

func (l *Launcher) failQueued(reason string) {
	for _, r := range l.queue.TakeAll() {
		l.fail(r, reason)
	}
}

// Drain fails every queued (not yet placed) request, and every submit that
// arrives afterwards, until a Restart. The instance gives its srun slot
// back once the requests it placed have left its pipeline and ended.
func (l *Launcher) Drain(reason string) {
	l.drained = true
	l.failQueued(reason)
	l.releaseIfDrained()
}

// FailNode kills every running request whose placement includes the
// node, releasing its slots and failing it so the agent relocates the
// task, and returns the victim count. Requests still in the launch
// pipeline are not running yet and survive.
func (l *Launcher) FailNode(node int, reason string) int {
	victims := 0
	for i := 0; i < len(l.running); {
		r := l.running[i]
		if !r.Pl.Includes(node) {
			i++
			continue
		}
		// removeRunning swap-moves the tail into slot i; re-examine it.
		l.removeRunning(r)
		l.release(r)
		l.fail(r, reason)
		victims++
	}
	l.Kick()
	l.releaseIfDrained()
	return victims
}

// Crash kills the instance: its srun slot frees, queued and running
// requests fail with their slots released, and OnException fires. It returns false
// when the instance is already down or there is no instance process to
// crash (srun).
func (l *Launcher) Crash(reason string) bool {
	if l.cfg.Bootstrap == nil || l.crashed {
		return false
	}
	l.crashed = true
	l.gen++
	l.releaseInstance()
	l.failQueued(reason)
	run := l.running
	l.running = nil
	for _, r := range run {
		r.runIdx = -1
		l.release(r)
		l.fail(r, reason)
	}
	if l.OnException != nil {
		l.OnException(reason)
	}
	return true
}

// Restart recovers a crashed instance: it boots from scratch, paying the
// srun step and bootstrap latency again, and once up fires the Ready
// callbacks registered meanwhile and resumes scheduling. It returns false
// unless the instance crashed, and after a startup timeout (permanent).
func (l *Launcher) Restart() bool {
	if !l.crashed || l.failed {
		return false
	}
	l.crashed = false
	l.drained = false
	l.ready = false
	l.Boot()
	return true
}

// releaseIfDrained gives a drained instance's srun slot back once nothing
// it placed is still in its pipeline or running.
func (l *Launcher) releaseIfDrained() {
	if l.drained && l.placed == 0 {
		l.releaseInstance()
	}
}

func (l *Launcher) releaseInstance() {
	if l.releaseSrun != nil {
		l.releaseSrun()
		l.releaseSrun = nil
	}
}
