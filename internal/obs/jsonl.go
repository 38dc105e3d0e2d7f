package obs

// The JSONL spill sink and its record schema: one self-describing JSON
// object per line, each wrapping exactly one of task / transfer / request /
// shard. A task, transfer or request object is the profiler's own record
// (profiler.TaskTrace, TransferTrace, RequestTrace) under its json tags,
// and each causal edge names its kind. Timestamps are int64 microseconds
// of virtual time (the engine's native unit); -1 marks events that never
// happened. ReadRecords drops an edge whose kind no release wrote rather
// than misattribute it. cmd/rptrace reads this format back for stats,
// top-N, blame and Perfetto export.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"

	"rpgo/internal/profiler"
)

// Record is one JSONL line: exactly one member is non-nil. Shard records
// (per-shard window telemetry) were added after the task/transfer/request
// trio; readers built before them skip the unknown member harmlessly.
type Record struct {
	Task     *profiler.TaskTrace     `json:"task,omitempty"`
	Transfer *profiler.TransferTrace `json:"transfer,omitempty"`
	Request  *profiler.RequestTrace  `json:"request,omitempty"`
	Shard    *ShardRecord            `json:"shard,omitempty"`
}

// JSONL is a streaming TraceSink spilling each record as one JSON line.
// It buffers 64 KiB of lines, and neither the session nor the profiler
// flushes it: the caller calls Flush once the run is over, or the spill
// loses its tail. Write errors latch and surface from Flush. One spill may back
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
func (s *JSONL) OnTask(t *profiler.TaskTrace) { s.write(Record{Task: t}) }

// OnTransfer implements TraceSink.
func (s *JSONL) OnTransfer(t profiler.TransferTrace) { s.write(Record{Transfer: &t}) }

// OnRequest implements TraceSink.
func (s *JSONL) OnRequest(r profiler.RequestTrace) { s.write(Record{Request: &r}) }

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
// drops the edges whose kind is not known, and stops at the first
// malformed line or fn error.
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
		if rec.Task != nil {
			rec.Task.Edges = knownEdges(rec.Task.Edges)
		}
		if rec.Transfer != nil {
			rec.Transfer.Edges = knownEdges(rec.Transfer.Edges)
		}
		if rec.Request != nil {
			rec.Request.Edges = knownEdges(rec.Request.Edges)
		}
		if err := fn(&rec); err != nil {
			return err
		}
	}
	return sc.Err()
}

// knownEdges is edges less those whose kind is not known, nil when none
// is left.
func knownEdges(edges []profiler.CausalEdge) []profiler.CausalEdge {
	edges = slices.DeleteFunc(edges, func(e profiler.CausalEdge) bool { return !e.Kind.Known() })
	if len(edges) == 0 {
		return nil
	}
	return edges
}
