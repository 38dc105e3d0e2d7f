// Package profiler keeps the timestamped trace records of a run, mirroring
// RADICAL-Analytics: post-mortem analysis derives throughput, concurrency
// and utilization from the virtual timestamps of each task's states.
//
// Each task gets one compact record, TaskTrace: fixed fields for the
// timestamps the analysis reads (submit, schedule, launch, start, end,
// final), the resources it held and the causal waits it resolved. The
// largest experiment traces 229,376 tasks. Inference requests and data
// transfers get records of their own. The profiler keeps no index by UID:
// every Task call opens a trace of its own, and the caller holds the
// pointer. Keeping UIDs unique is the task manager's job
// (core.TaskManager.Submit).
//
// The records' json tags are the JSONL spill format (internal/obs): a
// renamed tag breaks every spill already written.
package profiler

import (
	"encoding/json"
	"slices"
	"time"

	"rpgo/internal/sim"
)

// EdgeKind classifies a causal wait: what a record was blocked on before it
// could make progress. Kinds map one-to-one onto the blame taxonomy used by
// the critical-path engine (internal/analytics).
type EdgeKind uint8

const (
	// EdgeQueued: the task sat in the backend placement queue behind
	// earlier work (plain FIFO wait; placement never refused it).
	EdgeQueued EdgeKind = iota
	// EdgeStarved: the task was considered by the placer and denied at
	// least once for lack of free slots (placement starvation).
	EdgeStarved
	// EdgeStage: the task waited on its own staging transfer (Ref is the
	// transfer UID).
	EdgeStage
	// EdgeTransfer: the task piggybacked on another task's in-flight
	// transfer of the same dataset (Ref is that transfer's UID).
	EdgeTransfer
	// EdgeService: the task body blocked on an inference call (Ref is the
	// service name).
	EdgeService
	// EdgeRetry: the task was re-dispatched after a failure (Ref is the
	// failure reason); the edge spans the backoff.
	EdgeRetry
	// EdgeBatch: the request was served in a batch formed around an
	// earlier request (Ref is the batch leader's UID).
	EdgeBatch
	// EdgeReplica: the request waited for a serving replica to come free
	// (Ref is the replica UID that eventually served it).
	EdgeReplica
	// EdgeContention: the transfer shared a bandwidth channel with other
	// in-flight transfers (Ref is the contended channel name).
	EdgeContention
	// EdgeFailure: the attempt's work was lost to a failure (Ref is the
	// failure reason); the edge spans the dead attempt's run window, or —
	// terminally, when retries are exhausted — the instant of the final
	// failure.
	EdgeFailure
	// EdgeCheckpoint: the task body blocked on checkpoint traffic — a
	// periodic checkpoint write or a post-relocation restore stage-in
	// (Ref is the transfer UID).
	EdgeCheckpoint
)

var edgeKindNames = [...]string{
	EdgeQueued:     "queued",
	EdgeStarved:    "starved",
	EdgeStage:      "stage",
	EdgeTransfer:   "transfer",
	EdgeService:    "service",
	EdgeRetry:      "retry",
	EdgeBatch:      "batch",
	EdgeReplica:    "replica",
	EdgeContention: "contention",
	EdgeFailure:    "failure",
	EdgeCheckpoint: "checkpoint",
}

// edgeUnknown is the kind a decoded edge takes when its name is not one
// this release writes.
const edgeUnknown = EdgeKind(len(edgeKindNames))

func (k EdgeKind) String() string {
	if k.Known() {
		return edgeKindNames[k]
	}
	return "unknown"
}

// Known reports whether k is one of the kinds above. An edge decoded from
// a spill is not known when its kind is a name no release wrote, or
// missing.
func (k EdgeKind) Known() bool { return k < edgeUnknown }

// MarshalText encodes the kind as its name, the form spills carry.
func (k EdgeKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a kind name. A name no release wrote decodes as a
// kind that is not Known, not as an error, so a newer spill stays readable.
func (k *EdgeKind) UnmarshalText(b []byte) error {
	*k = edgeUnknown
	if i := slices.Index(edgeKindNames[:], string(b)); i >= 0 {
		*k = EdgeKind(i)
	}
	return nil
}

// CausalEdge records one resolved wait: the record holding the edge was
// blocked from From to To on the thing named by Kind/Ref. Edges are emitted
// at the moment the wait resolves and never mutate simulation state.
type CausalEdge struct {
	Kind EdgeKind `json:"kind"`
	// From is when the wait began, To when it resolved.
	From sim.Time `json:"from"`
	To   sim.Time `json:"to"`
	// Ref names the blocking entity: a transfer UID, request UID, replica
	// UID, service name, channel name, or retry reason, per Kind.
	Ref string `json:"ref,omitempty"`
}

// UnmarshalJSON decodes an edge. One whose kind is missing or null, or
// that is null itself, decodes with a kind that is not Known.
func (e *CausalEdge) UnmarshalJSON(b []byte) error {
	type fields CausalEdge
	f := fields{Kind: edgeUnknown}
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*e = CausalEdge(f)
	return nil
}

// Wait returns the edge's blocked duration.
func (e CausalEdge) Wait() sim.Duration { return e.To.Sub(e.From) }

// addEdge appends an edge. A record with no room left below four edges
// moves its edges into a new four-slot slice in one step, so a record costs
// at most one allocation up to four edges. Retained task traces start with
// one slot carved from a chunked arena (see Profiler.Task), which holds the
// one edge most tasks carry without allocating.
func addEdge(edges []CausalEdge, e CausalEdge) []CausalEdge {
	if len(edges) == cap(edges) && cap(edges) < 4 {
		edges = append(make([]CausalEdge, 0, 4), edges...)
	}
	return append(edges, e)
}

// TaskTrace is the compact per-task record. A negative time means the event
// did not (or has not yet) happened.
type TaskTrace struct {
	UID string `json:"uid"`
	// Submit is when the client task manager accepted the task.
	Submit sim.Time `json:"submit"`
	// Scheduled is when the agent scheduler handed it to an executor.
	Scheduled sim.Time `json:"scheduled"`
	// Launch is when the backend accepted the launch request.
	Launch sim.Time `json:"launch"`
	// Start is when the task process began executing.
	Start sim.Time `json:"start"`
	// End is when the task process finished.
	End sim.Time `json:"end"`
	// Final is when the task reached a terminal RP state.
	Final sim.Time `json:"final"`
	// Failed reports whether the terminal state was FAILED.
	Failed bool `json:"failed,omitempty"`
	// Backend records which runtime system executed the task.
	Backend string `json:"backend,omitempty"`
	// Workflow carries the task's campaign tag for analytics.
	Workflow string `json:"workflow,omitempty"`
	// Cores and GPUs are the slots the task occupied while running.
	Cores int `json:"cores,omitempty"`
	GPUs  int `json:"gpus,omitempty"`
	// Retries counts executor-level resubmissions.
	Retries int `json:"retries,omitempty"`
	// ServiceRequests counts inference requests the task issued;
	// ServiceFailed counts the ones that errored. ServiceWait is the
	// total wall time the task body spent blocked on responses.
	ServiceRequests int          `json:"serv_reqs,omitempty"`
	ServiceFailed   int          `json:"serv_fail,omitempty"`
	ServiceWait     sim.Duration `json:"serv_wait,omitempty"`
	// BytesIn / BytesOut are the bytes the data subsystem actually moved
	// for the task (locality hits move nothing). StageIn / StageOut are
	// the wall times the task spent staging — StageIn on the compute node
	// before its body ran, StageOut writing outputs after it.
	BytesIn  int64        `json:"bytes_in,omitempty"`
	BytesOut int64        `json:"bytes_out,omitempty"`
	StageIn  sim.Duration `json:"stage_in,omitempty"`
	StageOut sim.Duration `json:"stage_out,omitempty"`
	// DataHits counts input datasets found already at their destination
	// tier (or on the placement node); DataMisses counts the ones that
	// needed a transfer.
	DataHits   int `json:"data_hits,omitempty"`
	DataMisses int `json:"data_miss,omitempty"`
	// Edges are the resolved causal waits of this task, in resolution
	// order. Golden-fingerprint hashes enumerate fields explicitly, so
	// edges never perturb trace determinism checks.
	Edges []CausalEdge `json:"edges,omitempty"`
}

// AddEdge appends one resolved causal wait to the task's record.
func (t *TaskTrace) AddEdge(e CausalEdge) { t.Edges = addEdge(t.Edges, e) }

const unset = sim.Time(-1)

// NewTaskTrace returns a trace with all timestamps unset.
func NewTaskTrace(uid string) *TaskTrace {
	return &TaskTrace{
		UID:       uid,
		Submit:    unset,
		Scheduled: unset,
		Launch:    unset,
		Start:     unset,
		End:       unset,
		Final:     unset,
	}
}

// Ran reports whether the task has both start and end timestamps.
func (t *TaskTrace) Ran() bool { return t.Start >= 0 && t.End >= 0 }

// RequestTrace is the compact per-inference-request record, the
// request-level counterpart of TaskTrace: issue → batch dispatch →
// response. Traces are appended in completion order, which is
// deterministic for a fixed seed.
type RequestTrace struct {
	// UID identifies the request (e.g. "llm.req.000042").
	UID string `json:"uid"`
	// Service is the endpoint name; Replica the serving replica UID.
	Service string `json:"service"`
	Replica string `json:"replica,omitempty"`
	// Task is the issuing task's UID, empty for external clients.
	Task string `json:"task,omitempty"`
	// Issued is when the request entered the endpoint queue; Dispatched
	// when its batch started service; Done when the response returned.
	Issued     sim.Time `json:"issued"`
	Dispatched sim.Time `json:"dispatched"`
	Done       sim.Time `json:"done"`
	// Batch is the size of the batch that served the request.
	Batch int `json:"batch,omitempty"`
	// Failed marks requests that errored (endpoint closed, replica lost
	// beyond recovery).
	Failed bool `json:"failed,omitempty"`
	// Edges are the resolved causal waits of this request (batch
	// formation, replica availability).
	Edges []CausalEdge `json:"edges,omitempty"`
}

// AddEdge appends one resolved causal wait to the request's record.
func (r *RequestTrace) AddEdge(e CausalEdge) { r.Edges = addEdge(r.Edges, e) }

// Latency returns issue→response, the client-observed request latency.
func (r *RequestTrace) Latency() sim.Duration { return r.Done.Sub(r.Issued) }

// QueueWait returns issue→dispatch, the time spent queued and batching.
func (r *RequestTrace) QueueWait() sim.Duration { return r.Dispatched.Sub(r.Issued) }

// TransferTrace is the compact per-transfer record of the data subsystem:
// one contention-modelled movement of one dataset between two storage
// locations. Traces append in completion order, which is deterministic for
// a fixed seed.
type TransferTrace struct {
	// UID identifies the transfer (e.g. "xfer.000042") so causal edges on
	// tasks can name the exact movement they waited on.
	UID string `json:"uid,omitempty"`
	// Dataset is the dataset name; Task the staging task's UID (empty
	// for transfers outside any task).
	Dataset string `json:"dataset"`
	Task    string `json:"task,omitempty"`
	// Bytes is the transferred size.
	Bytes int64 `json:"bytes"`
	// Src and Dst name the endpoints (e.g. "sharedfs", "nvme:12").
	Src string `json:"src"`
	Dst string `json:"dst"`
	// Node is the compute node involved, -1 for tier-to-tier transfers.
	Node int `json:"node"`
	// Start is when the transfer entered its channels (after setup
	// latency); End when the last byte arrived.
	Start sim.Time `json:"start"`
	End   sim.Time `json:"end"`
	// Edges are the resolved causal waits of this transfer: at most one,
	// its channel contention (Profiler.Transfer).
	Edges []CausalEdge `json:"edges,omitempty"`
}

// Duration returns the transfer's time in the channels.
func (t *TransferTrace) Duration() sim.Duration { return t.End.Sub(t.Start) }

// TraceSink receives completed trace records as the simulation produces
// them: one OnTask per task at its terminal state, one OnTransfer per
// completed data movement, one OnRequest per answered inference request.
// Callbacks run inside engine events and must not schedule new ones.
// Implementations live in internal/obs (Memory, Fold, Blame, JSONL).
type TraceSink interface {
	OnTask(*TaskTrace)
	OnTransfer(TransferTrace)
	OnRequest(RequestTrace)
	// Flush finalizes buffered output (spill sinks). Neither the session
	// nor the profiler calls it: the caller that owns the sink flushes it
	// once the run is over, and a spill not flushed loses its tail.
	Flush() error
}

// TraceRetainer is an optional TraceSink capability. A sink that reports
// RetainTraces()=false switches the profiler to streaming mode: records are
// handed to the sink and dropped, so trace memory stays O(1) in task count.
// Sinks without the capability retain (the safe default).
type TraceRetainer interface {
	RetainTraces() bool
}

// Profiler collects the trace records of one session.
type Profiler struct {
	order []*TaskTrace
	// arena chunks TaskTrace storage so tracing n tasks costs n/chunk
	// allocations instead of n (the largest campaigns trace >200k tasks).
	arena []TaskTrace
	// edgeArena chunks the Edges backing storage the same way: every
	// retained task trace starts with a one-slot slice carved from a
	// shared chunk, so a task's first causal edge costs no allocation, and
	// a retained transfer's one edge takes such a slot too.
	edgeArena []CausalEdge

	// sink observes completed records; retain controls whether the
	// profiler also keeps them (streaming sinks turn retention off).
	sink   TraceSink
	retain bool

	// Phase, when set, receives one sim.PhaseSinkFold wall-clock sample per
	// sink callback — the self-profiler's view of how much real time the
	// streaming sinks (folds, spills, blame) cost the run.
	Phase sim.PhaseFunc

	requests  []RequestTrace
	transfers []TransferTrace
}

// New returns an empty profiler.
func New() *Profiler {
	return &Profiler{retain: true}
}

// SetSink routes completed records through s (nil restores the default
// retain-only behavior). Retention follows the sink's TraceRetainer
// capability: sinks without it keep today's in-memory traces.
func (p *Profiler) SetSink(s TraceSink) {
	p.sink = s
	p.retain = true
	if s != nil {
		if r, ok := s.(TraceRetainer); ok {
			p.retain = r.RetainTraces()
		}
	}
}

// Retain reports whether the profiler keeps records in memory; false means
// a streaming sink owns them (Tasks/Requests/Transfers stay empty).
func (p *Profiler) Retain() bool { return p.retain }

// Task opens a new compact trace for uid, with every timestamp unset, and
// returns it; the caller keeps the pointer. Every call opens a trace of its
// own, even for a UID seen before. Retained traces are appended in call
// order (Tasks) and carved from chunked arenas.
func (p *Profiler) Task(uid string) *TaskTrace {
	if !p.retain {
		// Streaming mode: the trace lives only until TaskFinal hands it
		// to the sink. No arena (its chunks would pin memory), no order.
		return NewTaskTrace(uid)
	}
	if len(p.arena) == 0 {
		p.arena = make([]TaskTrace, 512)
	}
	t := &p.arena[0]
	p.arena = p.arena[1:]
	*t = TaskTrace{
		UID:       uid,
		Submit:    unset,
		Scheduled: unset,
		Launch:    unset,
		Start:     unset,
		End:       unset,
		Final:     unset,
	}
	t.Edges = p.edgeSlot()
	p.order = append(p.order, t)
	return t
}

// edgeSlot carves an empty one-slot edge list from the edge arena.
func (p *Profiler) edgeSlot() []CausalEdge {
	if len(p.edgeArena) == 0 {
		p.edgeArena = make([]CausalEdge, 512)
	}
	e := p.edgeArena[:0:1]
	p.edgeArena = p.edgeArena[1:]
	return e
}

// TaskFinal notifies the profiler that a task's trace reached its terminal
// state: the sink observes the completed record. In streaming mode the
// profiler holds no reference to it, so trace memory stays bounded.
func (p *Profiler) TaskFinal(t *TaskTrace) {
	if p.sink != nil {
		var t0 time.Time
		if p.Phase != nil {
			t0 = time.Now()
		}
		p.sink.OnTask(t)
		if p.Phase != nil {
			p.Phase(sim.PhaseSinkFold, time.Since(t0).Nanoseconds())
		}
	}
}

// Tasks returns all traces in submission order (empty in streaming mode).
func (p *Profiler) Tasks() []*TaskTrace { return p.order }

// Request appends one completed inference-request trace.
func (p *Profiler) Request(rt RequestTrace) {
	if p.sink != nil {
		var t0 time.Time
		if p.Phase != nil {
			t0 = time.Now()
		}
		p.sink.OnRequest(rt)
		if p.Phase != nil {
			p.Phase(sim.PhaseSinkFold, time.Since(t0).Nanoseconds())
		}
	}
	if !p.retain {
		return
	}
	p.requests = append(p.requests, rt)
}

// Requests returns all request traces in completion order.
func (p *Profiler) Requests() []RequestTrace { return p.requests }

// RequestsFor returns the request traces against one service endpoint.
func (p *Profiler) RequestsFor(service string) []RequestTrace {
	var out []RequestTrace
	for _, r := range p.requests {
		if r.Service == service {
			out = append(out, r)
		}
	}
	return out
}

// Transfer appends one completed data-transfer trace. A transfer waits on
// at most one thing, a link it shared with other flows: wait, when not
// nil, is that wait and becomes the trace's one edge, in a slot of the
// edge arena when traces are retained and in a list of its own when they
// stream (where the arena's chunks would pin memory).
func (p *Profiler) Transfer(tt TransferTrace, wait *CausalEdge) {
	if wait != nil {
		if p.retain {
			tt.Edges = append(p.edgeSlot(), *wait)
		} else {
			tt.Edges = []CausalEdge{*wait}
		}
	}
	if p.sink != nil {
		var t0 time.Time
		if p.Phase != nil {
			t0 = time.Now()
		}
		p.sink.OnTransfer(tt)
		if p.Phase != nil {
			p.Phase(sim.PhaseSinkFold, time.Since(t0).Nanoseconds())
		}
	}
	if !p.retain {
		return
	}
	p.transfers = append(p.transfers, tt)
}

// Transfers returns all transfer traces in completion order.
func (p *Profiler) Transfers() []TransferTrace { return p.transfers }
