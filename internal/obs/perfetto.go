package obs

// Chrome/Perfetto trace-event export. Each task, transfer and request
// becomes a small tree of complete ("X") spans on its own thread track, so
// a fixed-seed run opens directly in ui.perfetto.dev (or chrome://tracing):
//
//	pid 1 "tasks":    per-task track — "task" span submit→final with
//	                  nested "schedule", "queue", "backend", "exec",
//	                  "stage-in", "stage-out" child spans.
//	pid 2 "data":     per-transfer track — one "transfer" span.
//	pid 3 "services": per-request track — "request" span issued→done with
//	                  nested "wait" and "serve" children.
//
// Times map 1:1 — the engine's int64 microseconds are exactly the
// trace-event "ts"/"dur" unit. Tracks are assigned sequentially per
// record, so the exporter is single-pass and O(1) memory.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

// TraceEvent is one Chrome trace-event object (the subset we emit and
// validate: complete spans "X", metadata "M", and flow events "s"/"f"
// along causal edges).
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Process IDs of the export's track groups.
const (
	PidTasks    = 1
	PidData     = 2
	PidServices = 3
	PidShards   = 4
)

// PerfettoWriter streams trace events as a single JSON object. Close
// finalizes the file.
type PerfettoWriter struct {
	w       *bufio.Writer
	n       int
	nextTid [5]int // per-pid track allocator
	err     error

	// sources maps exported record UIDs (transfers, requests, tasks) to
	// their track coordinates so causal edges referencing them render as
	// clickable flow arrows. Edges whose source spills after the
	// referencing record (or names a non-record entity like a channel or
	// service) draw no arrow — the edge still rides in the record's args.
	sources  map[string]flowSrc
	nextFlow int64
}

// flowSrc is one potential flow origin: a slice's track and end time.
type flowSrc struct {
	pid int
	tid int
	ts  sim.Time
}

// NewPerfettoWriter starts a trace-event JSON document on w and emits the
// process-name metadata.
func NewPerfettoWriter(w io.Writer) *PerfettoWriter {
	pw := &PerfettoWriter{w: bufio.NewWriterSize(w, 1<<16), sources: make(map[string]flowSrc)}
	_, pw.err = pw.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for pid, name := range []string{PidTasks: "tasks", PidData: "data", PidServices: "services", PidShards: "shards"} {
		if name == "" {
			continue
		}
		pw.event(TraceEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
	}
	return pw
}

// Events returns how many trace events were written.
func (pw *PerfettoWriter) Events() int { return pw.n }

func (pw *PerfettoWriter) event(ev TraceEvent) {
	if pw.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		pw.err = err
		return
	}
	if pw.n > 0 {
		pw.w.WriteByte(',')
	}
	pw.w.WriteByte('\n')
	_, pw.err = pw.w.Write(b)
	pw.n++
}

// span emits one complete span when both endpoints happened and are
// ordered.
func (pw *PerfettoWriter) span(name string, start, end sim.Time, pid, tid int, args map[string]any) {
	if start < 0 || end < start {
		return
	}
	pw.event(TraceEvent{
		Name: name, Cat: "lifecycle", Ph: "X",
		Ts: int64(start), Dur: int64(end - start), Pid: pid, Tid: tid, Args: args,
	})
}

// flows draws one arrow per causal edge whose referenced source already
// spilled: a flow start ("s") on the source slice and a binding finish
// ("f", bp="e") on the destination at the moment the wait resolved.
func (pw *PerfettoWriter) flows(edges []profiler.CausalEdge, dstPid, dstTid int) {
	for _, e := range edges {
		src, ok := pw.sources[e.Ref]
		if !ok || e.To < 0 {
			continue
		}
		pw.nextFlow++
		pw.event(TraceEvent{
			Name: e.Kind.String(), Cat: "causal", Ph: "s",
			Ts: int64(src.ts), Pid: src.pid, Tid: src.tid, ID: pw.nextFlow,
		})
		pw.event(TraceEvent{
			Name: e.Kind.String(), Cat: "causal", Ph: "f", BP: "e",
			Ts: int64(e.To), Pid: dstPid, Tid: dstTid, ID: pw.nextFlow,
		})
	}
}

// track claims the next thread track of a pid and names it.
func (pw *PerfettoWriter) track(pid int, name string) int {
	tid := pw.nextTid[pid]
	pw.nextTid[pid]++
	pw.event(TraceEvent{
		Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	})
	return tid
}

// Task exports one task's lifecycle span tree.
func (pw *PerfettoWriter) Task(t *profiler.TaskTrace) {
	tid := pw.track(PidTasks, t.UID)
	args := map[string]any{"uid": t.UID}
	if t.Backend != "" {
		args["backend"] = t.Backend
	}
	if t.Workflow != "" {
		args["workflow"] = t.Workflow
	}
	if t.Failed {
		args["failed"] = true
	}
	if t.Retries > 0 {
		args["retries"] = t.Retries
	}
	pw.span("task", t.Submit, t.Final, PidTasks, tid, args)
	pw.span("schedule", t.Submit, t.Scheduled, PidTasks, tid, nil)
	pw.span("queue", t.Scheduled, t.Launch, PidTasks, tid, nil)
	pw.span("backend", t.Launch, t.Start, PidTasks, tid, nil)
	pw.span("exec", t.Start, t.End, PidTasks, tid, nil)
	if t.StageIn > 0 && t.Start >= 0 {
		pw.span("stage-in", t.Start, t.Start.Add(t.StageIn), PidTasks, tid,
			map[string]any{"bytes": t.BytesIn})
	}
	if t.StageOut > 0 && t.End.Add(-t.StageOut) >= 0 {
		pw.span("stage-out", t.End.Add(-t.StageOut), t.End, PidTasks, tid,
			map[string]any{"bytes": t.BytesOut})
	}
	pw.flows(t.Edges, PidTasks, tid)
	if end := max(t.Final, t.End); end >= 0 {
		pw.sources[t.UID] = flowSrc{pid: PidTasks, tid: tid, ts: end}
	}
}

// Transfer exports one data movement as a span on its own track.
func (pw *PerfettoWriter) Transfer(t *profiler.TransferTrace) {
	tid := pw.track(PidData, fmt.Sprintf("%s→%s", t.Src, t.Dst))
	args := map[string]any{
		"dataset": t.Dataset, "bytes": t.Bytes, "task": t.Task,
	}
	if t.UID != "" {
		args["uid"] = t.UID
	}
	pw.span("transfer", t.Start, t.End, PidData, tid, args)
	pw.flows(t.Edges, PidData, tid)
	if t.UID != "" && t.End >= 0 {
		pw.sources[t.UID] = flowSrc{pid: PidData, tid: tid, ts: t.End}
	}
}

// Request exports one inference request with wait/serve children.
func (pw *PerfettoWriter) Request(r *profiler.RequestTrace) {
	tid := pw.track(PidServices, r.UID)
	args := map[string]any{"service": r.Service, "batch": r.Batch}
	if r.Failed {
		args["failed"] = true
	}
	pw.span("request", r.Issued, r.Done, PidServices, tid, args)
	pw.span("wait", r.Issued, r.Dispatched, PidServices, tid, nil)
	pw.span("serve", r.Dispatched, r.Done, PidServices, tid, nil)
	pw.flows(r.Edges, PidServices, tid)
	// A request's causal moment is its batch dispatch (followers point at
	// the leader's dispatch, not its completion).
	if ts := max(r.Dispatched, r.Issued); ts >= 0 {
		pw.sources[r.UID] = flowSrc{pid: PidServices, tid: tid, ts: ts}
	}
}

// Shard exports one shard's window telemetry as a counter track ("C"
// events) in the shards process. The values are cumulative end-of-run
// totals, so each quantity renders as one counter sample.
func (pw *PerfettoWriter) Shard(s *ShardRecord) {
	name := fmt.Sprintf("shard%d", s.Shard)
	pw.event(TraceEvent{
		Name: name, Cat: "shards", Ph: "C", Ts: 0, Pid: PidShards, Tid: s.Shard,
		Args: map[string]any{
			"events":       s.Events,
			"busy_windows": s.Busy,
			"skipped":      s.Skipped,
			"busy_ms":      float64(s.BusyNs) / 1e6,
			"sent":         s.Sent,
			"recv":         s.Recv,
		},
	})
}

// Record exports whichever record member is set.
func (pw *PerfettoWriter) Record(rec *Record) {
	switch {
	case rec.Task != nil:
		pw.Task(rec.Task)
	case rec.Transfer != nil:
		pw.Transfer(rec.Transfer)
	case rec.Request != nil:
		pw.Request(rec.Request)
	case rec.Shard != nil:
		pw.Shard(rec.Shard)
	}
}

// Close terminates the JSON document and flushes.
func (pw *PerfettoWriter) Close() error {
	if pw.err != nil {
		return pw.err
	}
	if _, err := pw.w.WriteString("\n]}\n"); err != nil {
		return err
	}
	return pw.w.Flush()
}

// validPhases are the trace-event phases this exporter may emit. "s"/"t"/
// "f" are flow start/step/finish along causal edges; "C" is a counter
// sample (per-shard telemetry tracks).
var validPhases = map[string]bool{
	"X": true, "M": true, "B": true, "E": true, "i": true,
	"s": true, "t": true, "f": true, "C": true,
}

// flowPhases require a flow id binding start to finish.
var flowPhases = map[string]bool{"s": true, "t": true, "f": true}

// ValidateTraceEvents checks a trace-event JSON document against the
// Chrome schema subset: a top-level traceEvents array whose members carry
// name/ph/pid/tid, non-negative ts, and non-negative dur on complete
// spans. It returns the event count.
func ValidateTraceEvents(r io.Reader) (int, error) {
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("obs: trace-event JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return 0, fmt.Errorf("obs: missing traceEvents array")
	}
	flowStart := map[int64]bool{}
	flowEnd := map[int64]bool{}
	for i, raw := range doc.TraceEvents {
		var ev TraceEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return 0, fmt.Errorf("obs: event %d: %w", i, err)
		}
		if ev.Name == "" {
			return 0, fmt.Errorf("obs: event %d: missing name", i)
		}
		if !validPhases[ev.Ph] {
			return 0, fmt.Errorf("obs: event %d: bad phase %q", i, ev.Ph)
		}
		if ev.Ph == "M" {
			continue
		}
		if ev.Ts < 0 {
			return 0, fmt.Errorf("obs: event %d: negative ts %d", i, ev.Ts)
		}
		if ev.Ph == "X" && ev.Dur < 0 {
			return 0, fmt.Errorf("obs: event %d: negative dur %d", i, ev.Dur)
		}
		if flowPhases[ev.Ph] {
			if ev.ID == 0 {
				return 0, fmt.Errorf("obs: event %d: flow phase %q without id", i, ev.Ph)
			}
			switch ev.Ph {
			case "s":
				flowStart[ev.ID] = true
			case "f":
				flowEnd[ev.ID] = true
			}
		}
	}
	for id := range flowEnd {
		if !flowStart[id] {
			return 0, fmt.Errorf("obs: flow %d finishes without a start", id)
		}
	}
	return len(doc.TraceEvents), nil
}
