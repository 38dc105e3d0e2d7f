// Package obs is the simulation-time observability subsystem: pluggable
// trace sinks the profiler streams completed records through, a metrics
// registry of counters and gauges sampled on sim-time ticks, and a
// Chrome/Perfetto trace-event exporter for span-based lifecycle analysis.
//
// Three sinks ship:
//
//   - Memory keeps today's behavior — the profiler retains every record in
//     memory, so post-mortem analytics (and the golden fingerprint tests)
//     see byte-identical traces. It is the default (a nil sink behaves the
//     same).
//   - Fold folds each record into running aggregates — throughput,
//     utilization, latency percentiles — in O(1) memory per task, so
//     million-task campaigns no longer pay O(n) trace retention.
//   - JSONL spills each record to an io.Writer as one JSON line, for
//     post-mortem tooling (cmd/rptrace) without in-memory retention.
//
// Sinks compose with Tee; retention follows profiler.TraceRetainer (any
// retaining member keeps the profiler's in-memory traces alive).
package obs

import "rpgo/internal/profiler"

// TraceSink re-exports the profiler's sink contract.
type TraceSink = profiler.TraceSink

// Memory is the default sink: it observes nothing and asks the profiler to
// retain every record, exactly as before sinks existed.
type Memory struct{}

// NewMemory returns the retain-everything sink.
func NewMemory() *Memory { return &Memory{} }

// OnTask implements TraceSink.
func (*Memory) OnTask(*profiler.TaskTrace) {}

// OnTransfer implements TraceSink.
func (*Memory) OnTransfer(profiler.TransferTrace) {}

// OnRequest implements TraceSink.
func (*Memory) OnRequest(profiler.RequestTrace) {}

// Flush implements TraceSink.
func (*Memory) Flush() error { return nil }

// RetainTraces keeps the profiler's in-memory traces (the default).
func (*Memory) RetainTraces() bool { return true }

// Tee fans records out to several sinks. The profiler retains traces if
// any member asks for retention, so Tee(Memory, Fold) folds *and* keeps
// the raw records.
type Tee struct {
	sinks []TraceSink
}

// NewTee returns a sink forwarding to each given sink in order.
func NewTee(sinks ...TraceSink) *Tee { return &Tee{sinks: sinks} }

// OnTask implements TraceSink.
func (t *Tee) OnTask(tr *profiler.TaskTrace) {
	for _, s := range t.sinks {
		s.OnTask(tr)
	}
}

// OnTransfer implements TraceSink.
func (t *Tee) OnTransfer(tt profiler.TransferTrace) {
	for _, s := range t.sinks {
		s.OnTransfer(tt)
	}
}

// OnRequest implements TraceSink.
func (t *Tee) OnRequest(rt profiler.RequestTrace) {
	for _, s := range t.sinks {
		s.OnRequest(rt)
	}
}

// Flush flushes every member, returning the first error.
func (t *Tee) Flush() error {
	var first error
	for _, s := range t.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RetainTraces reports whether any member wants retention.
func (t *Tee) RetainTraces() bool {
	for _, s := range t.sinks {
		r, ok := s.(profiler.TraceRetainer)
		if !ok || r.RetainTraces() {
			return true
		}
	}
	return false
}
