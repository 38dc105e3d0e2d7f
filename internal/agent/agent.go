// Package agent implements the RADICAL-Pilot Agent: the component that
// owns a resource allocation and manages task execution on it (paper §3,
// Fig 1).
//
// The Agent is a pipeline of components connected by queues —
// StagerIn → Scheduler → Executor(s) → StagerOut — plus a ServiceManager
// for long-running service tasks. Its distinguishing capability, and the
// paper's contribution, is that it concurrently instantiates and
// coordinates *multiple task runtime systems* (srun, Flux, Dragon, PRRTE) inside
// one allocation, routing each task to the backend that matches its
// execution model while keeping a single task lifecycle, profiling, and
// failure-handling path.
package agent

import (
	"fmt"

	"rpgo/internal/data"
	"rpgo/internal/dragon"
	"rpgo/internal/flux"
	"rpgo/internal/launch"
	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/prrte"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/slurm"
	"rpgo/internal/spec"
	"rpgo/internal/states"
)

// Task is the agent-side task record.
type Task struct {
	TD    *spec.TaskDescription
	State states.TaskState
	Trace *profiler.TaskTrace
	// Reason holds the failure reason for FAILED tasks. A task handed to
	// Submit with Reason already set was refused by the client (its UID
	// repeats one used before) and fails on arrival without running.
	Reason   string
	attempts int
	// done is invoked exactly once when the task reaches a final state.
	done func(*Task)
	// body, when set, overrides the fixed-Duration process body at
	// launch (service replicas run until stopped; coupled tasks block on
	// inference responses). Tasks with TD.Requests get a coupled body
	// built by the agent. A staged task's body is stagedBody, which runs
	// this one as its compute phase (staging.go).
	body func(start sim.Time, done func())
	// gen counts dispatch attempts. Agent-built bodies capture it so that
	// after a mid-run crash and retry the orphaned old body stops instead
	// of issuing phantom requests alongside the new attempt. A staged
	// attempt's record checks it at every step; forward wraps every other
	// body's done with the same guard, so even a custom body's stale
	// timers are inert after relocation.
	gen int
	// ckptFrac is the fraction of the task's work persisted by its last
	// completed checkpoint write; ckptSaved marks that a checkpoint image
	// exists to restore from after relocation.
	ckptFrac  float64
	ckptSaved bool
}

// transition validates and applies a state change, timestamping the trace.
func (a *Agent) transition(t *Task, to states.TaskState) {
	states.Validate(t.State, to)
	t.State = to
}

// Agent manages task execution on one pilot allocation.
type Agent struct {
	eng    *sim.Engine
	params model.Params
	ctrl   *slurm.Controller
	alloc  *platform.Allocation
	prof   *profiler.Profiler
	src    *rng.Source

	desc spec.PilotDescription

	// dataSys is the pilot's storage model: tiered channels, contention,
	// and the dataset placement registry behind data-aware scheduling.
	dataSys *data.System

	// scheduler is the pipeline's Scheduler stage; its stagers are the
	// data movers in staging.go.
	scheduler *sim.Server[*Task]

	groups []*executorGroup

	ready        bool
	readyFns     []func()
	draining     bool
	preBootstrap []*Task

	// sm manages deployed inference-service endpoints (lazily created).
	sm *ServiceManager

	// preferFn is preferRequest, the Prefer hook of every data-aware
	// consumer (staging.go). It is bound on first use: a pilot that never
	// stages pays nothing for it.
	preferFn func(*launch.Request) []int

	// slowFactor, when set by the fault injector, maps node ID to an
	// execution-time stretch factor (≥ 1) applied to plain compute bodies
	// placed on that node (straggler model).
	slowFactor func(node int) float64

	// Phase, when set before the engine runs, is handed to every backend
	// launcher as it is created during bootstrap (launchers do not exist
	// yet when the pilot is submitted).
	Phase sim.PhaseFunc
	// elastic marks that a fault injector manages this pilot: a group
	// whose instances are all down parks tasks until a restart instead of
	// failing them (without an injector nothing would ever restart them).
	elastic bool

	// Counters. peakInFlight is the most tasks ever submitted and not yet
	// final at once.
	nSubmitted   int
	nFinal       int
	nDispatches  int
	nRetries     int
	peakInFlight int

	// preferNodes' scratch, reused across calls: the scored nodes, the
	// returned ID list, and prefSlot, which maps a node's offset in the
	// allocation to 1 + its index in prefScores while a call runs (0
	// otherwise).
	prefScores []nodeScore
	prefIDs    []int
	prefSlot   []int32
}

// executorGroup is one backend type with its concurrent instances. The
// group's submitter serializes task→job-description conversion and the
// submit RPC — the single-threaded section of an RP executor, and the
// per-backend throughput ceiling of the agent (§4.1.5).
type executorGroup struct {
	backend   spec.Backend
	launchers []*launch.Launcher
	alive     []bool
	inflight  []int // tasks handed to each launcher and not yet final
	submitter *sim.Server[*Task]
	pending   []*Task // held until at least one launcher is ready
	anyReady  bool
	// lost marks that every instance failed its startup for good: no
	// instance will ever take a task, so tasks routed here fail.
	lost bool
}

// New creates an agent over the allocation for a valid description (the
// session validates it) and begins bootstrap: the agent itself starts in
// params.RP.AgentBootstrap seconds, then brings up every backend instance
// concurrently (Fig 7: overheads are not additive).
func New(desc spec.PilotDescription, eng *sim.Engine, ctrl *slurm.Controller,
	alloc *platform.Allocation, prof *profiler.Profiler, src *rng.Source,
	params model.Params) *Agent {

	a := &Agent{
		eng:    eng,
		params: params,
		ctrl:   ctrl,
		alloc:  alloc,
		prof:   prof,
		src:    src,
		desc:   desc,
	}
	schedStream := src.Stream("agent.scheduler")
	a.scheduler = sim.NewServer(eng, 1, func(*Task) sim.Duration {
		return sim.Seconds(schedStream.Exp(1 / params.RP.SchedRate))
	}, a.scheduled)
	a.dataSys = data.NewSystem(eng, alloc, params.Data, prof)

	a.eng.After(sim.Seconds(params.RP.AgentBootstrap), a.bootstrapBackends)
	return a
}

// Data returns the pilot's storage subsystem (channels, registry,
// locality counters).
func (a *Agent) Data() *data.System { return a.dataSys }

// bootstrapBackends partitions the allocation and launches every backend
// instance concurrently. A pilot drained before its agent came up launches
// none, so no instance of it takes an srun slot; dispatch fails the tasks
// routed to its empty groups.
func (a *Agent) bootstrapBackends() {
	parts := a.layoutPartitions()
	submitStream := a.src.Stream("agent.executor.submit")
	for gi, pc := range a.partitionConfigs() {
		g := &executorGroup{backend: pc.Backend}
		g.submitter = sim.NewServer(a.eng, 1, func(*Task) sim.Duration {
			return sim.Seconds(submitStream.Jitter(a.params.RP.ExecutorSubmitOverhead, 0.3))
		}, func(t *Task) { a.forward(g, t) })
		for ii := 0; ii < pc.Instances && !a.draining; ii++ {
			part := parts[gi][ii]
			name := fmt.Sprintf("%s.%d", pc.Backend, ii)
			l := a.newLauncher(pc, name, part)
			idx := len(g.launchers)
			l.OnException = func(string) { a.instanceDown(g, idx) }
			if a.Phase != nil {
				l.AttachPhase(a.Phase)
			}
			g.launchers = append(g.launchers, l)
			g.alive = append(g.alive, true)
			g.inflight = append(g.inflight, 0)
			l.Ready(func() { a.launcherReady(g) })
		}
		a.groups = append(a.groups, g)
	}
	// The agent is ready for task intake immediately; executors hold
	// tasks until their backends come up.
	a.ready = true
	fns := a.readyFns
	a.readyFns = nil
	for _, fn := range fns {
		a.eng.Immediately(fn)
	}
	// The parked tasks re-enter the scheduler in one event, in order. One
	// event per task would carry consecutive sequence numbers, so nothing
	// could run between them, and the order is the same.
	if parked := a.preBootstrap; len(parked) > 0 {
		a.preBootstrap = nil
		a.eng.Immediately(func() {
			for _, t := range parked {
				a.scheduled(t)
			}
		})
	}
}

// newLauncher creates one backend instance over its partition: the shared
// launcher driven by the backend's cost model.
func (a *Agent) newLauncher(pc spec.PartitionConfig, name string, part *platform.Allocation) *launch.Launcher {
	switch pc.Backend {
	case spec.BackendSrun:
		return slurm.NewSrunLauncher(name, a.eng, a.ctrl, part, a.src).Launcher
	case spec.BackendFlux:
		return flux.NewInstance(flux.Config{
			Name:   name,
			Params: a.params.Flux,
			Eta:    a.params.Flux.Eta(pc.Instances),
		}, a.eng, a.ctrl, part, a.src).Launcher
	case spec.BackendPRRTE:
		return prrte.NewDVM(name, prrte.DefaultParams(), a.eng, a.ctrl, part, a.src).Launcher
	case spec.BackendDragon:
		return dragon.NewRuntime(dragon.Config{
			Name:   name,
			Params: a.params.Dragon,
			Eta:    a.params.Flux.Eta(pc.Instances),
		}, a.eng, a.ctrl, part, a.src).Launcher
	default:
		panic("agent: unknown backend " + pc.Backend.String())
	}
}

// partitionConfigs returns the pilot's partition layout, defaulting to a
// single srun executor over the whole allocation (RP's default executor).
func (a *Agent) partitionConfigs() []spec.PartitionConfig {
	if len(a.desc.Partitions) > 0 {
		return a.desc.Partitions
	}
	return []spec.PartitionConfig{{Backend: spec.BackendSrun, Instances: 1}}
}

// layoutPartitions slices the allocation into every group's instances, with
// the node counts the description's GroupNodes gives: fixed-size groups
// from the front, then the flexible ones. Validate ensured every group gets
// a node per instance.
func (a *Agent) layoutPartitions() [][]*platform.Allocation {
	desc := a.desc
	desc.Partitions = a.partitionConfigs()
	sizes := desc.GroupNodes()
	out := make([][]*platform.Allocation, len(desc.Partitions))
	offset := 0
	for gi, pc := range desc.Partitions {
		if pc.NodesPerInstance <= 0 {
			continue
		}
		out[gi] = make([]*platform.Allocation, pc.Instances)
		for ii := range out[gi] {
			out[gi][ii] = a.alloc.Slice(offset, pc.NodesPerInstance)
			offset += pc.NodesPerInstance
		}
	}
	for gi, pc := range desc.Partitions {
		if pc.NodesPerInstance <= 0 {
			out[gi] = a.alloc.Slice(offset, sizes[gi]).Partition(pc.Instances)
			offset += sizes[gi]
		}
	}
	return out
}

// Ready registers a callback fired once the agent accepts tasks.
func (a *Agent) Ready(fn func()) {
	if a.ready {
		a.eng.Immediately(fn)
		return
	}
	a.readyFns = append(a.readyFns, fn)
}

// Launchers returns the flat list of backend launchers (for tests and
// overhead analysis).
func (a *Agent) Launchers() []*launch.Launcher {
	var out []*launch.Launcher
	for _, g := range a.groups {
		out = append(out, g.launchers...)
	}
	return out
}

// Submitted and Final report task accounting.
func (a *Agent) Submitted() int { return a.nSubmitted }

// Final reports how many tasks reached a terminal state.
func (a *Agent) Final() int { return a.nFinal }

// PeakInFlight reports the most tasks ever submitted and not yet final at
// once.
func (a *Agent) PeakInFlight() int { return a.peakInFlight }

// Dispatches reports how many backend dispatch attempts the agent made
// (initial submissions plus retries).
func (a *Agent) Dispatches() int { return a.nDispatches }

// Retries reports executor-level resubmissions across all tasks.
func (a *Agent) Retries() int { return a.nRetries }

// Submit accepts a task from the client-side task manager. done fires when
// the task reaches a final state.
func (a *Agent) Submit(t *Task, done func(*Task)) {
	t.done = done
	a.nSubmitted++
	a.peakInFlight = max(a.peakInFlight, a.nSubmitted-a.nFinal)
	if t.Reason != "" {
		a.finish(t, states.TaskFailed, t.Reason)
		return
	}
	if a.draining {
		a.finish(t, states.TaskFailed, "pilot is draining")
		return
	}
	if err := t.TD.Validate(a.alloc.Cluster.Spec.Slots(), a.alloc.Cluster.Spec.GPUs); err != nil {
		a.finish(t, states.TaskFailed, err.Error())
		return
	}
	a.transition(t, states.TaskAgentStagingIn)
	if t.TD.HasStaging() && !t.TD.Service {
		// Sized directives: contention-aware pre-placement staging into
		// shared tiers; node-local staging runs in the task body once
		// placement is known. A service stages nothing.
		a.stageInShared(t)
		return
	}
	a.stagedIn(t)
}

func (a *Agent) stagedIn(t *Task) {
	a.transition(t, states.TaskAgentSchedule)
	a.scheduler.Submit(t)
}

// scheduled runs when the agent scheduler processed the task: route it to
// an executor group.
func (a *Agent) scheduled(t *Task) {
	t.Trace.Scheduled = a.eng.Now()
	if len(a.groups) == 0 {
		// Backends are still bootstrapping; park until they exist.
		a.preBootstrap = append(a.preBootstrap, t)
		return
	}
	g := a.route(t)
	if g == nil {
		a.finish(t, states.TaskFailed, fmt.Sprintf("no executor for %s task %s", t.TD.Kind, t.TD.UID))
		return
	}
	a.transition(t, states.TaskAgentExecuting)
	a.dispatch(g, t)
}

// route picks the executor group for a task: pinned backend first, then by
// modality — functions to Dragon, executables to Flux, falling back to
// whatever exists (§3.1: "tasks are mapped to the backend that best
// matches their execution models").
func (a *Agent) route(t *Task) *executorGroup {
	want := t.TD.Backend
	if want != spec.BackendAuto {
		for _, g := range a.groups {
			if g.backend == want {
				return g
			}
		}
		return nil
	}
	var prefer []spec.Backend
	if t.TD.Kind == spec.Function {
		prefer = []spec.Backend{spec.BackendDragon, spec.BackendFlux, spec.BackendPRRTE, spec.BackendSrun}
	} else {
		prefer = []spec.Backend{spec.BackendFlux, spec.BackendPRRTE, spec.BackendSrun, spec.BackendDragon}
	}
	for _, b := range prefer {
		for _, g := range a.groups {
			if g.backend == b {
				return g
			}
		}
	}
	return nil
}

// dispatch queues a task on the group's submitter (the executor's
// single-threaded serialization stage), or parks it until an instance is
// ready.
func (a *Agent) dispatch(g *executorGroup, t *Task) {
	if a.draining {
		// A retry backoff that resolves after Drain would re-enqueue into
		// a drained queue and sit there forever.
		a.finish(t, states.TaskFailed, "pilot is draining")
		return
	}
	if g.lost {
		a.finish(t, states.TaskFailed, fmt.Sprintf("every %s instance failed to start", g.backend))
		return
	}
	if !g.anyReady {
		g.pending = append(g.pending, t)
		return
	}
	g.submitter.Submit(t)
}

// dispatchRec binds one backend dispatch attempt of a task. It embeds the
// launch request, which holds the attempt's placement, srun release and
// running-list slot, and implements launch.Events, so a single-node
// dispatch attempt costs this one allocation from the agent through the
// backend to completion — the agent→backend hand-off is the hottest
// object on the task path. It is 176 B, exactly its size class; a staged
// dispatch embeds it in a stagedRec (staging.go), so every other task
// stays in that class.
type dispatchRec struct {
	a   *Agent
	g   *executorGroup
	t   *Task
	idx int
	req launch.Request
}

// OnStart implements launch.Events.
func (d *dispatchRec) OnStart(at sim.Time) {
	a, t := d.a, d.t
	a.transition(t, states.TaskRunning)
	t.Trace.Start = at
	t.Trace.Cores = t.TD.TotalCores()
	t.Trace.GPUs = t.TD.TotalGPUs()
}

// OnComplete implements launch.Events.
func (d *dispatchRec) OnComplete(at sim.Time, failed bool, reason string) {
	if d.idx < len(d.g.inflight) {
		d.g.inflight[d.idx]--
	}
	d.a.completed(d.g, d.t, at, failed, reason)
}

// forward hands a serialized task to the least-loaded live instance (late
// binding: the choice happens at submission time, not at scheduling time).
func (a *Agent) forward(g *executorGroup, t *Task) {
	a.nDispatches++
	idx := a.pickLauncher(g, t)
	if idx < 0 {
		// Under fault injection, "no live instance" is transient: a
		// crashed backend restarts after its downtime and flushes the
		// group's pending list. Park the task unless the group is lost or
		// the task fits no partition at all (both permanent). Without an
		// injector nothing would restart an instance, so the legacy
		// immediate-failure path stands.
		if a.elastic && !a.draining && !g.lost {
			for _, l := range g.launchers {
				if t.TD.Nodes <= l.Nodes() {
					g.pending = append(g.pending, t)
					return
				}
			}
		}
		a.finish(t, states.TaskFailed, fmt.Sprintf("no live %s instance fits task %s", g.backend, t.TD.UID))
		return
	}
	l := g.launchers[idx]
	g.inflight[idx]++
	t.Trace.Launch = a.eng.Now()
	t.Trace.Backend = l.Name()
	t.gen++
	body := t.body
	if body == nil && len(t.TD.Requests) > 0 {
		body = a.coupledBody(t)
	}
	// A staged attempt is one object: its dispatch record and its staging
	// state.
	var rec *dispatchRec
	var staged *stagedRec
	if t.TD.HasStaging() {
		staged = &stagedRec{}
		rec = &staged.dispatchRec
	} else {
		rec = &dispatchRec{}
	}
	rec.a, rec.g, rec.t, rec.idx = a, g, t, idx
	// Plain fixed-Duration bodies get a fault-aware compute body when a
	// straggler model is installed or the task checkpoints: exec time
	// stretches with the slowest placed node, and checkpoint writes /
	// restores ride the data subsystem.
	faulty := body == nil && !t.TD.Service &&
		(a.slowFactor != nil || t.TD.Checkpointed())
	if faulty {
		body = a.computeBody(t, &rec.req.Pl)
	}
	rec.req = launch.Request{
		UID:    t.TD.UID,
		TD:     t.TD,
		Events: rec,
		Trace:  t.Trace,
	}
	switch {
	case staged != nil:
		if a.prefersNodes(t.TD) {
			// Late-bound: backends evaluate the preference at placement
			// time, when the registry reflects every transfer completed
			// (or started) while the task sat in the backend queue.
			// Producers and pack-policy tasks carry none, so queues
			// holding only them skip the placer's affinity window.
			if a.preferFn == nil {
				a.preferFn = a.preferRequest
			}
			rec.req.Prefer = a.preferFn
		}
		// The staging state checks the generation at every step, so the
		// staged body needs no guard.
		staged.st = stagingRec{a: a, t: t, d: rec, inner: body, gen: t.gen}
		rec.req.Events, rec.req.Body = staged, stagedBody
	case body != nil:
		// Generation-guard the completion: after a mid-run crash and
		// relocation, a stale body's timers must stay inert — they may
		// still fire, but can no longer complete the task.
		gen := t.gen
		rec.req.Body = func(r *launch.Request, end func(*launch.Request)) {
			body(a.eng.Now(), func() {
				if t.gen == gen {
					end(r)
				}
			})
		}
	}
	l.Submit(&rec.req)
}

// pickLauncher returns the index of the least-loaded live instance whose
// partition fits the task, or -1. Load balancing by in-flight count keeps
// faster instances busier, which is what lets concurrent partitions
// aggregate their dispatch rates.
func (a *Agent) pickLauncher(g *executorGroup, t *Task) int {
	best := -1
	for i, l := range g.launchers {
		if !g.alive[i] || t.TD.Nodes > l.Nodes() {
			continue
		}
		if best < 0 || g.inflight[i] < g.inflight[best] {
			best = i
		}
	}
	return best
}

// completed handles a launcher completion: retry infrastructure failures,
// otherwise stage out and finalize.
func (a *Agent) completed(g *executorGroup, t *Task, at sim.Time, failed bool, reason string) {
	if failed {
		// Invalidate the attempt's process body immediately: a crashed
		// coupled task must stop issuing inference requests during the
		// retry backoff — and permanently if retries are exhausted.
		t.gen++
		// The dead attempt's run window is failure-handling time: from
		// the later of this attempt's dispatch and its process start
		// (a queue-killed attempt never started) to the failure.
		from := t.Trace.Launch
		if t.Trace.Start > from {
			from = t.Trace.Start
		}
		if at > from {
			t.Trace.AddEdge(profiler.CausalEdge{
				Kind: profiler.EdgeFailure,
				From: from,
				To:   at,
				Ref:  reason,
			})
		}
		if t.attempts < t.TD.MaxRetries && !a.draining {
			t.attempts++
			a.nRetries++
			t.Trace.Retries = t.attempts
			// The task goes back through executor dispatch after a
			// backoff; its state regresses to AGENT_EXECUTING paths.
			if t.State == states.TaskRunning {
				// Launcher reported a mid-run crash.
				t.State = states.TaskAgentExecuting
			}
			failAt := at
			a.eng.After(sim.Seconds(a.params.RP.RetryBackoff), func() {
				// The backoff just resolved: the re-dispatch is causally
				// downstream of the failure.
				t.Trace.AddEdge(profiler.CausalEdge{
					Kind: profiler.EdgeRetry,
					From: failAt,
					To:   a.eng.Now(),
					Ref:  reason,
				})
				a.dispatch(g, t)
			})
			return
		}
		// Retries exhausted (or draining): the terminal failure edge was
		// recorded above; the task goes FAILED instead of retrying forever.
		a.finish(t, states.TaskFailed, reason)
		return
	}
	t.Trace.End = at
	// Output directives were written by the task body's epilogue (the node
	// holds its slots while checkpoints drain, which is what creates write
	// pressure), so staging out has nothing left to do.
	a.transition(t, states.TaskAgentStagingOut)
	a.finish(t, states.TaskDone, "")
}

// finish makes a task final and runs its done callback. Every path to it
// holds a task that is not final yet; a second finish is a bug, and it
// panics as states.Validate does for an illegal transition.
func (a *Agent) finish(t *Task, st states.TaskState, reason string) {
	if t.State.Final() {
		panic(fmt.Sprintf("agent: task %s finished twice: %v, then %v", t.TD.UID, t.State, st))
	}
	t.gen++ // no process body may outlive a final state
	if st == states.TaskFailed {
		t.Trace.Failed = true
		t.Reason = reason
	}
	a.transition(t, st)
	t.Trace.Final = a.eng.Now()
	a.prof.TaskFinal(t.Trace)
	a.nFinal++
	// The callback runs now, once the task's final state is recorded;
	// clearing t.done keeps the record from holding the callback.
	if done := t.done; done != nil {
		t.done = nil
		done(t)
	}
}

// launcherReady flushes the group's parked tasks when its first instance
// comes up.
func (a *Agent) launcherReady(g *executorGroup) {
	g.anyReady = true
	pend := g.pending
	g.pending = nil
	for _, t := range pend {
		a.dispatch(g, t)
	}
}

// instanceDown marks an instance dead after a backend exception; its tasks
// come back through OnComplete(failed) and get retried on live instances.
// Once every instance of the group has failed its startup, which no
// restart undoes, the tasks parked for the group go back through dispatch
// and fail there.
func (a *Agent) instanceDown(g *executorGroup, idx int) {
	if idx < len(g.alive) {
		g.alive[idx] = false
	}
	for _, l := range g.launchers {
		if !l.Failed() {
			return
		}
	}
	g.lost = true
	pend := g.pending
	g.pending = nil
	for _, t := range pend {
		a.dispatch(g, t)
	}
}

// Drain stops intake and drains all backend queues; queued tasks fail.
// Deployed service endpoints close: queued requests still serve, and
// replicas stop as they go idle. Every backend instance, a crashed one
// mid-restart too, gives its srun ceiling slot back once its running
// tasks end, and no instance restarts afterwards.
func (a *Agent) Drain(reason string) {
	a.draining = true
	if a.sm != nil {
		a.sm.CloseAll()
	}
	for _, g := range a.groups {
		// Detach the parked list before failing any of it: a done callback
		// may drain the agent again (a Cancel from inside the fault
		// injector's Drain), and that Drain must not see these tasks.
		pend := g.pending
		g.pending = nil
		for _, t := range pend {
			a.finish(t, states.TaskFailed, reason)
		}
		for _, l := range g.launchers {
			l.Drain(reason)
		}
	}
}
