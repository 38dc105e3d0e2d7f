package obs

// The JSONL spill sink and its record schema: one self-describing JSON
// object per line, each wrapping exactly one of task / transfer / request.
// Timestamps are int64 microseconds of virtual time (the engine's native
// unit); -1 marks events that never happened. cmd/rptrace reads this
// format back for stats, top-N and Perfetto export.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

// EdgeRecord is the JSONL form of profiler.CausalEdge: a typed wait with
// its resolution window and the blocking entity's reference.
type EdgeRecord struct {
	Kind string `json:"kind"`
	From int64  `json:"from"`
	To   int64  `json:"to"`
	Ref  string `json:"ref,omitempty"`
}

// newEdgeRecords converts causal edges to their JSONL form (nil in, nil
// out, so edge-free records spill no "edges" key).
func newEdgeRecords(edges []profiler.CausalEdge) []EdgeRecord {
	if len(edges) == 0 {
		return nil
	}
	out := make([]EdgeRecord, len(edges))
	for i, e := range edges {
		out[i] = EdgeRecord{Kind: e.Kind.String(), From: int64(e.From), To: int64(e.To), Ref: e.Ref}
	}
	return out
}

// edgeTraces converts JSONL edge records back to causal edges; unknown
// kind names (future schema) are dropped rather than misattributed.
func edgeTraces(recs []EdgeRecord) []profiler.CausalEdge {
	if len(recs) == 0 {
		return nil
	}
	out := make([]profiler.CausalEdge, 0, len(recs))
	for _, r := range recs {
		k, ok := profiler.EdgeKindFromString(r.Kind)
		if !ok {
			continue
		}
		out = append(out, profiler.CausalEdge{Kind: k, From: sim.Time(r.From), To: sim.Time(r.To), Ref: r.Ref})
	}
	return out
}

// TaskRecord is the JSONL form of profiler.TaskTrace.
type TaskRecord struct {
	UID       string `json:"uid"`
	Submit    int64  `json:"submit"`
	Scheduled int64  `json:"scheduled"`
	Launch    int64  `json:"launch"`
	Start     int64  `json:"start"`
	End       int64  `json:"end"`
	Final     int64  `json:"final"`
	Failed    bool   `json:"failed,omitempty"`
	Backend   string `json:"backend,omitempty"`
	Workflow  string `json:"workflow,omitempty"`
	Cores     int    `json:"cores,omitempty"`
	GPUs      int    `json:"gpus,omitempty"`
	Retries   int    `json:"retries,omitempty"`
	ServReqs  int    `json:"serv_reqs,omitempty"`
	ServFail  int    `json:"serv_fail,omitempty"`
	ServWait  int64  `json:"serv_wait,omitempty"`
	BytesIn   int64  `json:"bytes_in,omitempty"`
	BytesOut  int64  `json:"bytes_out,omitempty"`
	StageIn   int64  `json:"stage_in,omitempty"`
	StageOut  int64  `json:"stage_out,omitempty"`
	DataHits  int    `json:"data_hits,omitempty"`
	DataMiss  int    `json:"data_miss,omitempty"`

	Edges []EdgeRecord `json:"edges,omitempty"`
}

// NewTaskRecord converts a trace to its JSONL record.
func NewTaskRecord(t *profiler.TaskTrace) TaskRecord {
	return TaskRecord{
		UID:       t.UID,
		Submit:    int64(t.Submit),
		Scheduled: int64(t.Scheduled),
		Launch:    int64(t.Launch),
		Start:     int64(t.Start),
		End:       int64(t.End),
		Final:     int64(t.Final),
		Failed:    t.Failed,
		Backend:   t.Backend,
		Workflow:  t.Workflow,
		Cores:     t.Cores,
		GPUs:      t.GPUs,
		Retries:   t.Retries,
		ServReqs:  t.ServiceRequests,
		ServFail:  t.ServiceFailed,
		ServWait:  int64(t.ServiceWait),
		BytesIn:   t.BytesIn,
		BytesOut:  t.BytesOut,
		StageIn:   int64(t.StageIn),
		StageOut:  int64(t.StageOut),
		DataHits:  t.DataHits,
		DataMiss:  t.DataMisses,
		Edges:     newEdgeRecords(t.Edges),
	}
}

// Trace converts the record back to a profiler.TaskTrace (the round-trip
// cmd/rptrace stats relies on to replay records through a Fold).
func (r *TaskRecord) Trace() *profiler.TaskTrace {
	return &profiler.TaskTrace{
		UID:             r.UID,
		Submit:          sim.Time(r.Submit),
		Scheduled:       sim.Time(r.Scheduled),
		Launch:          sim.Time(r.Launch),
		Start:           sim.Time(r.Start),
		End:             sim.Time(r.End),
		Final:           sim.Time(r.Final),
		Failed:          r.Failed,
		Backend:         r.Backend,
		Workflow:        r.Workflow,
		Cores:           r.Cores,
		GPUs:            r.GPUs,
		Retries:         r.Retries,
		ServiceRequests: r.ServReqs,
		ServiceFailed:   r.ServFail,
		ServiceWait:     sim.Duration(r.ServWait),
		BytesIn:         r.BytesIn,
		BytesOut:        r.BytesOut,
		StageIn:         sim.Duration(r.StageIn),
		StageOut:        sim.Duration(r.StageOut),
		DataHits:        r.DataHits,
		DataMisses:      r.DataMiss,
		Edges:           edgeTraces(r.Edges),
	}
}

// TransferRecord is the JSONL form of profiler.TransferTrace.
type TransferRecord struct {
	UID     string `json:"uid,omitempty"`
	Dataset string `json:"dataset"`
	Task    string `json:"task,omitempty"`
	Bytes   int64  `json:"bytes"`
	Src     string `json:"src"`
	Dst     string `json:"dst"`
	Node    int    `json:"node"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`

	Edges []EdgeRecord `json:"edges,omitempty"`
}

// NewTransferRecord converts a trace to its JSONL record.
func NewTransferRecord(t profiler.TransferTrace) TransferRecord {
	return TransferRecord{
		UID: t.UID, Dataset: t.Dataset, Task: t.Task, Bytes: t.Bytes,
		Src: t.Src, Dst: t.Dst, Node: t.Node,
		Start: int64(t.Start), End: int64(t.End),
		Edges: newEdgeRecords(t.Edges),
	}
}

// Trace converts the record back to a profiler.TransferTrace.
func (r *TransferRecord) Trace() profiler.TransferTrace {
	return profiler.TransferTrace{
		UID: r.UID, Dataset: r.Dataset, Task: r.Task, Bytes: r.Bytes,
		Src: r.Src, Dst: r.Dst, Node: r.Node,
		Start: sim.Time(r.Start), End: sim.Time(r.End),
		Edges: edgeTraces(r.Edges),
	}
}

// RequestRecord is the JSONL form of profiler.RequestTrace.
type RequestRecord struct {
	UID        string `json:"uid"`
	Service    string `json:"service"`
	Replica    string `json:"replica,omitempty"`
	Task       string `json:"task,omitempty"`
	Issued     int64  `json:"issued"`
	Dispatched int64  `json:"dispatched"`
	Done       int64  `json:"done"`
	Batch      int    `json:"batch,omitempty"`
	Failed     bool   `json:"failed,omitempty"`

	Edges []EdgeRecord `json:"edges,omitempty"`
}

// NewRequestRecord converts a trace to its JSONL record.
func NewRequestRecord(t profiler.RequestTrace) RequestRecord {
	return RequestRecord{
		UID: t.UID, Service: t.Service, Replica: t.Replica, Task: t.Task,
		Issued: int64(t.Issued), Dispatched: int64(t.Dispatched),
		Done: int64(t.Done), Batch: t.Batch, Failed: t.Failed,
		Edges: newEdgeRecords(t.Edges),
	}
}

// Trace converts the record back to a profiler.RequestTrace.
func (r *RequestRecord) Trace() profiler.RequestTrace {
	return profiler.RequestTrace{
		UID: r.UID, Service: r.Service, Replica: r.Replica, Task: r.Task,
		Issued: sim.Time(r.Issued), Dispatched: sim.Time(r.Dispatched),
		Done: sim.Time(r.Done), Batch: r.Batch, Failed: r.Failed,
		Edges: edgeTraces(r.Edges),
	}
}

// Record is one JSONL line: exactly one member is non-nil. Shard records
// (per-shard window telemetry) were added after the task/transfer/request
// trio; readers built before them skip the unknown member harmlessly.
type Record struct {
	Task     *TaskRecord     `json:"task,omitempty"`
	Transfer *TransferRecord `json:"transfer,omitempty"`
	Request  *RequestRecord  `json:"request,omitempty"`
	Shard    *ShardRecord    `json:"shard,omitempty"`
}

// JSONL is a streaming TraceSink spilling each record as one JSON line.
// It buffers writes; call Flush (the session does on Profiler.Flush) to
// drain. Write errors latch and surface from Flush. One spill may back
// every domain of a sharded session: the domains run in turn, so the
// record order is fixed by the seed, the domain layout and the shard
// count. Writes are serialized by an internal mutex, so sessions on
// several goroutines may share a spill too, with every line intact.
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	n   int
	err error
}

// NewJSONL returns a sink writing JSON lines to w.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONL{w: bw, enc: json.NewEncoder(bw)}
}

// RetainTraces switches the profiler to streaming mode.
func (*JSONL) RetainTraces() bool { return false }

func (s *JSONL) write(rec Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.n++
	s.err = s.enc.Encode(rec)
}

// WriteShard spills one per-shard telemetry record.
func (s *JSONL) WriteShard(rec ShardRecord) {
	s.write(Record{Shard: &rec})
}

// OnTask implements TraceSink.
func (s *JSONL) OnTask(t *profiler.TaskTrace) {
	r := NewTaskRecord(t)
	s.write(Record{Task: &r})
}

// OnTransfer implements TraceSink.
func (s *JSONL) OnTransfer(t profiler.TransferTrace) {
	r := NewTransferRecord(t)
	s.write(Record{Transfer: &r})
}

// OnRequest implements TraceSink.
func (s *JSONL) OnRequest(t profiler.RequestTrace) {
	r := NewRequestRecord(t)
	s.write(Record{Request: &r})
}

// Records returns how many records were written.
func (s *JSONL) Records() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Flush drains the buffer and returns the first write/encode error.
func (s *JSONL) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// ReadRecords streams JSONL records from r, calling fn per record. It
// stops at the first malformed line or fn error.
func ReadRecords(r io.Reader, fn func(*Record) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return fmt.Errorf("obs: line %d: %w", line, err)
		}
		if err := fn(&rec); err != nil {
			return err
		}
	}
	return sc.Err()
}
