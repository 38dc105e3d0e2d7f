// Package core implements the client side of RADICAL-Pilot: the Session,
// pilot management, and the task manager that feeds the agent over
// latency-modelled pipes (paper Fig 1: "RP API" down to the Agent).
//
// The package is the glue between user-facing descriptions (internal/spec)
// and the executing agent (internal/agent); the public facade for
// applications is package rp at the repository root.
package core

import (
	"fmt"
	"slices"
	"strings"

	"rpgo/internal/agent"
	"rpgo/internal/analytics"
	"rpgo/internal/fault"
	"rpgo/internal/launch"
	"rpgo/internal/model"
	"rpgo/internal/obs"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/rng"
	"rpgo/internal/service"
	"rpgo/internal/sim"
	"rpgo/internal/slurm"
	"rpgo/internal/spec"
	"rpgo/internal/states"
)

// Config configures a session.
type Config struct {
	// Seed drives every stochastic model; identical seeds replay
	// identically.
	Seed uint64
	// Params overrides the calibrated model constants; nil uses
	// model.Default().
	Params *model.Params
	// Sink, when set, receives every completed trace as it finalizes.
	// Sinks that implement profiler.TraceRetainer and return false switch
	// the profiler to streaming mode: traces are handed to the sink and
	// dropped instead of retained, bounding memory at campaign scale.
	Sink profiler.TraceSink
	// Profile, when set, attaches the wall-clock self-profiler: the engine,
	// trace sinks and every backend placer report phase samples into it,
	// and MetricsSnapshot merges the totals as selfprof.* counters. Nil
	// (the default) leaves every hook unset — golden fingerprints and hot
	// paths are untouched.
	Profile *obs.SelfProfiler
}

// Session owns the simulation engine, the machine, the Slurm controller,
// and all pilots. It corresponds to rp.Session in RADICAL-Pilot.
type Session struct {
	Engine     *sim.Engine
	Controller *slurm.Controller
	Profiler   *profiler.Profiler
	Params     model.Params

	src      *rng.Source
	pilots   []*Pilot
	taskSeq  int
	pilotSeq int
	profile  *obs.SelfProfiler
	// callerUIDs holds the task UIDs callers supplied and callerSeqs the
	// sequence numbers those tasks took, in increasing order; both stay
	// nil until a caller supplies a UID.
	callerUIDs map[string]struct{}
	callerSeqs []int
}

// Profile returns the session's self-profiler (nil when profiling is off).
func (s *Session) Profile() *obs.SelfProfiler { return s.profile }

// NewSession creates a session with its own event engine.
func NewSession(cfg Config) *Session {
	return newSessionOn(sim.NewEngine(), cfg)
}

// newSessionOn creates a session on a caller-owned engine. Sharded sessions
// use it to bind every partition domain to the engine of its shard; all
// other session state (controller, profiler, RNG source) stays
// domain-local so domains never share mutable state across shards.
func newSessionOn(eng *sim.Engine, cfg Config) *Session {
	params := model.Default()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	src := rng.New(cfg.Seed)
	prof := profiler.New()
	if cfg.Sink != nil {
		prof.SetSink(cfg.Sink)
	}
	if cfg.Profile != nil {
		// Engine dispatch timing (fires from Engine.Run only — sharded
		// sessions report through the coordinator instead) and sink-fold
		// timing. Placer hooks attach per pilot in SubmitPilot.
		eng.Phase = cfg.Profile.Observe
		prof.Phase = cfg.Profile.Observe
	}
	return &Session{
		Engine:     eng,
		Controller: slurm.NewController(eng, params.Srun, src),
		Profiler:   prof,
		Params:     params,
		src:        src,
		profile:    cfg.Profile,
	}
}

// Pilot is a resource placeholder: an allocation plus the agent running on
// it.
type Pilot struct {
	UID   string
	Desc  spec.PilotDescription
	State states.PilotState

	Cluster *platform.Cluster
	Alloc   *platform.Allocation
	Agent   *agent.Agent
	// Faults is the pilot's failure injector, non-nil only when
	// Params.Fault is enabled; its schedule is pre-drawn at submit.
	Faults *fault.Injector

	sess *Session
	// domain is the simulation partition hosting this pilot (0 in plain
	// sessions; set by ShardedSession.SubmitPilot).
	domain int
	// SubmittedAt / ActiveAt time the pilot bootstrap overhead.
	SubmittedAt sim.Time
	ActiveAt    sim.Time
}

// Domain returns the simulation partition hosting this pilot (0 unless the
// pilot was submitted through a ShardedSession).
func (p *Pilot) Domain() int { return p.domain }

// SubmitPilot requests an allocation and bootstraps an agent on it. Each
// pilot gets a dedicated cluster of exactly its size (batch queue waiting
// is out of scope; the paper measures inside active allocations), while all
// pilots share one Slurm controller and its srun ceiling. It returns the
// error of an invalid description or of the session's FaultParams, which
// the pilot's fault injector would draw from.
func (s *Session) SubmitPilot(pd spec.PilotDescription) (*Pilot, error) {
	if pd.UID == "" {
		pd.UID = fmt.Sprintf("pilot.%04d", s.pilotSeq)
	}
	s.pilotSeq++
	if err := pd.Validate(); err != nil {
		return nil, err
	}
	if err := s.Params.Fault.Validate(); err != nil {
		return nil, err
	}
	smt := pd.SMT
	if smt == 0 {
		smt = 1
	}
	cluster := platform.NewCluster(platform.Frontier(smt), pd.Nodes)
	alloc := cluster.Allocate(pd.Nodes)

	p := &Pilot{
		UID:         pd.UID,
		Desc:        pd,
		State:       states.PilotNew,
		Cluster:     cluster,
		Alloc:       alloc,
		sess:        s,
		SubmittedAt: s.Engine.Now(),
	}
	states.ValidatePilot(p.State, states.PilotLaunching)
	p.State = states.PilotLaunching

	ag := agent.New(pd, s.Engine, s.Controller, alloc, s.Profiler, s.src, s.Params)
	p.Agent = ag
	if s.profile != nil {
		// Launchers are created later, during agent bootstrap; the agent
		// attaches the hook to each launcher as it comes up.
		ag.Phase = s.profile.Observe
	}
	if s.Params.Fault.Enabled() {
		// The injector draws only from its own named streams, so sessions
		// without faults (this branch never taken) are bit-identical to
		// builds without the fault package at all.
		p.Faults = fault.New(s.Engine, cluster, ag, s.src, s.Params.Fault, func(reason string) {
			p.end(states.PilotFailed, reason)
		})
	}
	ag.Ready(func() {
		// A pilot ended before its agent came up (by Cancel, a Runtime
		// shorter than the bootstrap, or the loss of every node) stays
		// final.
		if p.State.Final() {
			return
		}
		states.ValidatePilot(p.State, states.PilotActive)
		p.State = states.PilotActive
		p.ActiveAt = s.Engine.Now()
	})
	if pd.Runtime > 0 {
		s.Engine.After(pd.Runtime, func() {
			p.Cancel("pilot walltime exceeded")
		})
	}
	s.pilots = append(s.pilots, p)
	return p, nil
}

// Cancel drains the pilot: queued tasks fail, running tasks finish.
func (p *Pilot) Cancel(reason string) { p.end(states.PilotCanceled, reason) }

// end makes the pilot final in state, then drains its agent. The pilot is
// final before the drain starts: Drain runs the done callback of every
// task it fails, and a Cancel from one of them must find nothing left to
// do. A pilot already final stays as it is.
func (p *Pilot) end(state states.PilotState, reason string) {
	if p.State.Final() {
		return
	}
	states.ValidatePilot(p.State, state)
	p.State = state
	p.Agent.Drain(reason)
}

// BootstrapOverhead reports submit→active; valid once the pilot is active.
func (p *Pilot) BootstrapOverhead() sim.Duration {
	return p.ActiveAt.Sub(p.SubmittedAt)
}

// ServiceHandle is the client-side handle of a deployed inference service
// (the service counterpart of a Task): it exposes readiness, request
// submission for external clients, statistics, and teardown.
type ServiceHandle struct {
	sess *Session
	ep   *service.Endpoint
}

// DeployService brings up a persistent inference service on the pilot.
// Replicas run as service tasks on the pilot's partitions; tasks couple to
// the endpoint by listing its Name in their Requests.
func (p *Pilot) DeployService(sd spec.ServiceDescription) (*ServiceHandle, error) {
	ep, err := p.Agent.Services().Deploy(sd)
	if err != nil {
		return nil, err
	}
	return &ServiceHandle{sess: p.sess, ep: ep}, nil
}

// Name returns the endpoint name tasks address in ServiceCall.Service.
func (h *ServiceHandle) Name() string { return h.ep.Name() }

// Endpoint exposes the underlying endpoint (timelines, queue state).
func (h *ServiceHandle) Endpoint() *service.Endpoint { return h.ep }

// Ready registers fn to fire once the service can serve requests.
func (h *ServiceHandle) Ready(fn func()) { h.ep.Ready(fn) }

// Call issues one request from an external client (outside any task);
// done fires with the response.
func (h *ServiceHandle) Call(done func(at sim.Time, failed bool)) string {
	return h.ep.Submit("", done)
}

// Stats summarizes served requests, latency percentiles, batching and
// autoscaling behaviour so far.
func (h *ServiceHandle) Stats() service.Stats { return h.ep.Stats() }

// Requests returns the endpoint's completed request traces.
func (h *ServiceHandle) Requests() []profiler.RequestTrace {
	return h.sess.Profiler.RequestsFor(h.ep.Name())
}

// Close drains the service: queued requests still serve, then replicas
// stop and release their slots.
func (h *ServiceHandle) Close() { h.ep.Close() }

// TaskManager submits tasks to one pilot and tracks their completion.
type TaskManager struct {
	sess  *Session
	pilot *Pilot
	// tasks retains submitted task records — only while the profiler
	// retains traces; in streaming mode completion is tracked by count so
	// memory stays bounded.
	tasks     []*agent.Task
	submitted int
	final     int
	// OnComplete, when set, observes every terminal task (campaign
	// engines subscribe here).
	OnComplete func(*agent.Task)
	// doneFn / submitFn are prebound method values shared by every
	// submission (per-task method-value allocations add up at scale).
	doneFn   func(*agent.Task)
	submitFn func(any)
	// xd, when set, routes submit batches and completion notices across
	// simulation partitions (the pilot lives in another domain of a
	// ShardedSession); nil keeps the classic same-engine pipe path.
	xd *xdTransport
	// doneSendFn runs on the pilot's engine and ships the completion
	// notice back across the partition boundary; doneRecvFn unwraps it on
	// the client engine. Both are only set alongside xd.
	doneSendFn func(*agent.Task)
	doneRecvFn func(any)
	// drive, when set, replaces the engine Wait runs to quiescence (the
	// sharded engine instead of the client partition's engine).
	drive func()
}

// TaskManager creates a task manager bound to the pilot.
func (s *Session) TaskManager(p *Pilot) *TaskManager {
	tm := &TaskManager{sess: s, pilot: p}
	tm.doneFn = tm.taskDone
	tm.submitFn = tm.submitBatch
	return tm
}

// Tasks returns all tasks ever submitted through this manager. In
// streaming mode (a non-retaining Config.Sink) task records are not kept
// and Tasks returns nil; use the sink's folds instead.
func (tm *TaskManager) Tasks() []*agent.Task { return tm.tasks }

// SubmittedCount returns how many tasks were submitted through this
// manager (valid in both retained and streaming modes).
func (tm *TaskManager) SubmittedCount() int { return tm.submitted }

// FinalCount returns how many of them reached a terminal state.
func (tm *TaskManager) FinalCount() int { return tm.final }

// taskUIDLen returns len(fmt.Sprintf("task.%06d", seq)) for seq ≥ 0.
func taskUIDLen(seq int) int {
	digits := 1
	for ; seq >= 10; seq /= 10 {
		digits++
	}
	return len("task.") + max(digits, 6)
}

// generatedSeq reports the sequence number a UID of the generator's
// "task.%06d" form encodes; ok is false for any other UID.
func generatedSeq(uid string) (seq int, ok bool) {
	d, ok := strings.CutPrefix(uid, "task.")
	if !ok || len(d) < 6 || len(d) > 18 || len(d) > 6 && d[0] == '0' {
		return 0, false
	}
	for i := 0; i < len(d); i++ {
		if d[i] < '0' || d[i] > '9' {
			return 0, false
		}
		seq = seq*10 + int(d[i]-'0')
	}
	return seq, true
}

// callerUIDRepeats records that the task taking sequence number seq
// carries a caller-supplied uid, and reports whether the session already
// used uid: a caller supplied it before, or the generator issued it, which
// it did for every earlier sequence number not taken by a caller's UID.
func (s *Session) callerUIDRepeats(uid string, seq int) bool {
	s.callerSeqs = append(s.callerSeqs, seq)
	if _, ok := s.callerUIDs[uid]; ok {
		return true
	}
	if g, ok := generatedSeq(uid); ok && g < seq {
		if _, taken := slices.BinarySearch(s.callerSeqs, g); !taken {
			return true
		}
	}
	if s.callerUIDs == nil {
		s.callerUIDs = make(map[string]struct{})
	}
	s.callerUIDs[uid] = struct{}{}
	return false
}

// Submit sends task descriptions to the pilot's agent. It returns the
// agent-side task records (their Trace fields fill in as the simulation
// advances).
//
// Every task takes the session's next sequence number, and a description
// without a UID gets "task.%06d" of it. A task whose UID the session
// already used, by a caller or by the generator, still gets a record and
// a trace of its own, but it fails on arrival at the agent, with the UID
// in its reason, and never runs.
func (tm *TaskManager) Submit(tds []*spec.TaskDescription) []*agent.Task {
	if len(tds) == 0 {
		return nil
	}
	s := tm.sess
	// Task records for one batch share a single backing allocation, and
	// its generated UIDs one string, sized before it is built: a
	// description repeated within the batch is counted twice, so the size
	// is never short.
	arena := make([]agent.Task, len(tds))
	out := make([]*agent.Task, len(tds))
	var uids strings.Builder
	size := 0
	for i, td := range tds {
		if td.UID == "" {
			size += taskUIDLen(s.taskSeq + i)
		}
	}
	uids.Grow(size)
	now := s.Engine.Now()
	retain := s.Profiler.Retain()
	tm.submitted += len(tds)
	for i, td := range tds {
		seq := s.taskSeq
		s.taskSeq++
		var repeat bool
		if td.UID == "" {
			// Bytes already written never move, so each UID is a
			// substring of the batch's one string.
			from := uids.Len()
			spec.WriteSeqUID(&uids, "task.", uint64(seq))
			td.UID = uids.String()[from:]
			_, repeat = s.callerUIDs[td.UID]
		} else {
			repeat = s.callerUIDRepeats(td.UID, seq)
		}
		tr := s.Profiler.Task(td.UID)
		tr.Submit = now
		tr.Workflow = td.Workflow
		t := &arena[i]
		t.TD = td
		t.State = states.TaskNew
		t.Trace = tr
		if repeat {
			t.Reason = fmt.Sprintf("task UID %q already used in this session", td.UID)
		}
		// Client-side acceptance, then the ZeroMQ hop to the agent.
		states.Validate(t.State, states.TaskTMGRSchedule)
		t.State = states.TaskTMGRSchedule
		if retain {
			tm.tasks = append(tm.tasks, t)
		}
		out[i] = t
	}
	// One pipe-latency hop delivers the whole batch. The per-task submit
	// events this replaces carried consecutive sequence numbers — no
	// foreign event could interleave between them — so handing the batch
	// to the agent in one event preserves the exact event order.
	if tm.xd != nil {
		tm.xd.se.Send(tm.xd.client, tm.xd.pilot, tm.xd.latency, tm.submitFn, out)
	} else {
		tm.sess.Engine.AfterCall(sim.Seconds(tm.sess.Params.RP.PipeLatency), tm.submitFn, out)
	}
	return out
}

// submitBatch delivers one Submit batch to the agent.
func (tm *TaskManager) submitBatch(arg any) {
	done := tm.doneFn
	if tm.xd != nil {
		done = tm.doneSendFn
	}
	for _, t := range arg.([]*agent.Task) {
		tm.pilot.Agent.Submit(t, done)
	}
}

func (tm *TaskManager) taskDone(t *agent.Task) {
	tm.final++
	if tm.OnComplete != nil {
		tm.OnComplete(t)
	}
}

// Wait drives the simulation until every submitted task (including ones
// submitted by completion callbacks while waiting) is final. It returns an
// error if the event queue drains with tasks still pending — that would be
// a deadlock in the modelled system.
func (tm *TaskManager) Wait() error {
	if tm.drive != nil {
		tm.drive()
	} else {
		tm.sess.Engine.Run()
	}
	if tm.final != tm.submitted {
		return fmt.Errorf("core: %d of %d tasks never finished", tm.submitted-tm.final, tm.submitted)
	}
	return nil
}

// MetricsSnapshot exports the native counters and gauges of the session's
// components: the event engine, the Slurm srun ceiling, every backend's
// placement machinery, the agent dispatch pipeline, the data subsystem's
// transfer and locality counters, and any deployed inference services.
// Gauges report the current value summed over pilots as last and the
// largest pilot's peak as max.
func (s *Session) MetricsSnapshot() *obs.Snapshot { return s.snapshot(true) }

// LiveSnapshot is the mid-run variant behind the monitor's /metrics: the
// same export minus the blame decomposition, which walks retained traces
// and is only meaningful (or safe) once the run has finished.
func (s *Session) LiveSnapshot() *obs.Snapshot { return s.snapshot(false) }

func (s *Session) snapshot(includeBlame bool) *obs.Snapshot {
	snap := obs.NewSnapshot()
	snap.Put("sim.events", float64(s.Engine.Steps()))
	snap.Put("sim.heap_pushes", float64(s.Engine.HeapPushes()))
	snap.Put("sim.heap_highwater", float64(s.Engine.HeapHighWater()))
	snap.Put("sim.timer_cancellations", float64(s.Engine.Cancellations()))
	snap.Put("sim.pool_slots", float64(s.Engine.PoolSlots()))
	snap.Put("sim.pool_free", float64(s.Engine.PoolFree()))
	snap.Put("slurm.srun_highwater", float64(s.Controller.Ceiling().HighWater))

	var dispatches, retries, hits, misses int
	var transfers, coalesced, stalls int
	var inflight, inflightPeak, flows, flowsPeak int
	var bytesMoved int64
	var pstats launch.PlacerStats
	queueHigh := 0
	var served, failed uint64
	scaleEvents := 0
	var fstats fault.Stats
	downNodes := 0
	faulted := false
	for _, p := range s.pilots {
		if inj := p.Faults; inj != nil {
			faulted = true
			st := inj.Stats()
			fstats.NodeFailures += st.NodeFailures
			fstats.NodeRestores += st.NodeRestores
			fstats.BackendCrashes += st.BackendCrashes
			fstats.BackendRestarts += st.BackendRestarts
			fstats.Victims += st.Victims
			fstats.StragglerNodes += st.StragglerNodes
			downNodes += inj.DownNodes()
		}
		ag := p.Agent
		dispatches += ag.Dispatches()
		retries += ag.Retries()
		inflight += ag.Submitted() - ag.Final()
		inflightPeak = max(inflightPeak, ag.PeakInFlight())
		for _, l := range ag.Launchers() {
			tel := l.Telemetry()
			pstats.Merge(tel.Placer)
			if tel.QueueHighWater > queueHigh {
				queueHigh = tel.QueueHighWater
			}
		}
		if ds := ag.Data(); ds != nil {
			hits += ds.Hits()
			misses += ds.Misses()
			bytesMoved += ds.BytesMoved()
			transfers += ds.Transfers()
			coalesced += ds.CoalescedJoins()
			stalls += ds.ContentionStalls()
			flows += ds.InFlight()
			flowsPeak = max(flowsPeak, ds.PeakInFlight())
		}
		for _, ep := range ag.Services().Endpoints() {
			st := ep.Stats()
			served += st.Served
			failed += st.Failed
			scaleEvents += len(st.ScaleEvents)
		}
	}
	snap.Put("agent.dispatches", float64(dispatches))
	snap.Put("agent.retries", float64(retries))
	snap.Put("launch.attempts", float64(pstats.Attempts))
	snap.Put("launch.placed", float64(pstats.Placed))
	snap.Put("launch.scan_failures", float64(pstats.ScanFailures))
	snap.Put("launch.watermark_skips", float64(pstats.WatermarkSkips))
	snap.Put("launch.affinity_hits", float64(pstats.AffinityHits))
	snap.Put("launch.backfill_hits", float64(pstats.BackfillHits))
	snap.Put("launch.queue_highwater", float64(queueHigh))
	snap.Put("data.locality_hits", float64(hits))
	snap.Put("data.locality_misses", float64(misses))
	snap.Put("data.bytes_total", float64(bytesMoved))
	// These keys appear once a pilot exists, so a sharded session's
	// pilot-less client domain adds no gauges to the merged snapshot.
	if len(s.pilots) > 0 {
		snap.Put("data.transfers", float64(transfers))
		snap.Put("data.coalesced_joins", float64(coalesced))
		snap.Put("data.contention_stalls", float64(stalls))
		snap.PutGauge("agent.inflight_tasks", float64(inflight), float64(inflightPeak))
		snap.PutGauge("data.active_flows", float64(flows), float64(flowsPeak))
	}
	snap.Put("service.served", float64(served))
	snap.Put("service.failed", float64(failed))
	snap.Put("service.scale_events", float64(scaleEvents))
	if faulted {
		snap.Put("fault.node_failures", float64(fstats.NodeFailures))
		snap.Put("fault.node_restores", float64(fstats.NodeRestores))
		snap.Put("fault.backend_crashes", float64(fstats.BackendCrashes))
		snap.Put("fault.backend_restarts", float64(fstats.BackendRestarts))
		snap.Put("fault.victims", float64(fstats.Victims))
		snap.Put("fault.straggler_nodes", float64(fstats.StragglerNodes))
		snap.Put("fault.down_nodes", float64(downNodes))
	}

	s.profile.Merge(snap)

	// Blame summary (retained-trace sessions only; streaming sinks own the
	// records and report through their own Blame sink instead).
	if includeBlame && s.Profiler.Retain() {
		if traces := s.Profiler.Tasks(); len(traces) > 0 {
			rep := analytics.BlameFromTraces(traces)
			snap.Put("blame.makespan_seconds", rep.Makespan.Seconds())
			snap.Put("blame.chain_links", float64(len(rep.Chain)))
			for c := analytics.BlameCategory(0); c < analytics.NumBlame; c++ {
				snap.Put("blame."+c.String()+"_seconds", rep.Blame[c].Seconds())
			}
		}
	}
	return snap
}

// Run drives the whole session until the event queue drains.
func (s *Session) Run() { s.Engine.Run() }

// RunUntil drives the session to the given virtual time.
func (s *Session) RunUntil(t sim.Time) { s.Engine.RunUntil(t) }

// Pilots returns all pilots submitted in the session.
func (s *Session) Pilots() []*Pilot { return s.pilots }

// Rand derives a deterministic named random stream from the session seed
// (used by workload generators and the campaign's adaptive sizing).
func (s *Session) Rand(name string) *rng.Stream { return s.src.Stream(name) }
