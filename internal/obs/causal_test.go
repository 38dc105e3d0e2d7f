package obs

// Tests for the causal-tracing surface: JSONL round-trips of failed and
// retried tasks with causal edges, the streaming blame sink and its online
// straggler detector, Perfetto flow events, byte-deterministic metric
// snapshots, and Fold/Hist percentiles at bucket boundaries.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"rpgo/internal/analytics"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

func TestJSONLRoundTripFailedRetried(t *testing.T) {
	// A failed, retried task that never started: negative timestamps, the
	// Failed flag, and a mixed causal edge list must survive the spill.
	task := profiler.NewTaskTrace("task.0007")
	task.Submit = 1_000_000
	task.Final = 9_000_000
	task.Failed = true
	task.Retries = 2
	task.Backend = "flux"
	task.Workflow = "pipeline"
	task.AddEdge(profiler.CausalEdge{Kind: profiler.EdgeQueued, From: 1_500_000, To: 2_000_000})
	task.AddEdge(profiler.CausalEdge{Kind: profiler.EdgeRetry, From: 3_000_000, To: 5_000_000, Ref: "spawn"})
	task.AddEdge(profiler.CausalEdge{Kind: profiler.EdgeService, From: 6_000_000, To: 7_000_000, Ref: "llm"})

	xfer := profiler.TransferTrace{
		UID: "xfer.000042", Dataset: "weights", Task: "task.0007",
		Bytes: 1 << 30, Src: "sharedfs", Dst: "nvme:3", Node: 3,
		Start: 2_000_000, End: 4_000_000,
		Edges: []profiler.CausalEdge{
			{Kind: profiler.EdgeContention, From: 2_000_000, To: 4_000_000, Ref: "pfs"},
		},
	}

	req := profiler.RequestTrace{
		UID: "llm.req.000001", Service: "llm", Replica: "llm.rep.0",
		Task: "task.0007", Issued: 6_000_000, Dispatched: 6_500_000,
		Done: 7_000_000, Batch: 4,
		Edges: []profiler.CausalEdge{
			{Kind: profiler.EdgeBatch, From: 6_000_000, To: 6_500_000, Ref: "llm.req.000000"},
		},
	}

	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	sink.OnTask(task)
	sink.OnTransfer(xfer)
	sink.OnRequest(req)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	var gotTask *profiler.TaskTrace
	var gotXfer *profiler.TransferTrace
	var gotReq *profiler.RequestTrace
	err := ReadRecords(&buf, func(rec *Record) error {
		switch {
		case rec.Task != nil:
			gotTask = rec.Task
		case rec.Transfer != nil:
			gotXfer = rec.Transfer
		case rec.Request != nil:
			gotReq = rec.Request
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotTask == nil || !reflect.DeepEqual(gotTask, task) {
		t.Errorf("task round-trip mismatch:\n got %+v\nwant %+v", gotTask, task)
	}
	if gotTask != nil && (gotTask.Scheduled != -1 || gotTask.Start != -1) {
		t.Errorf("unset (negative) timestamps lost: scheduled=%d start=%d", gotTask.Scheduled, gotTask.Start)
	}
	if gotXfer == nil || !reflect.DeepEqual(*gotXfer, xfer) {
		t.Errorf("transfer round-trip mismatch:\n got %+v\nwant %+v", gotXfer, xfer)
	}
	if gotReq == nil || !reflect.DeepEqual(*gotReq, req) {
		t.Errorf("request round-trip mismatch:\n got %+v\nwant %+v", gotReq, req)
	}
}

// unknownEdgesLine is a task whose edges are, in order, of a kind no
// release wrote, of no kind, null, of a null kind, and queued.
const unknownEdgesLine = `{"task":{"uid":"t.0","submit":0,"scheduled":-1,"launch":-1,"start":-1,"end":-1,"final":5,` +
	`"edges":[{"kind":"wormhole","from":0,"to":5},{"from":0,"to":5},null,{"kind":null,"from":0,"to":5},` +
	`{"kind":"queued","from":1,"to":2}]}}` + "\n"

// nonObjectEdgeLine is a task whose one edge is not an object.
const nonObjectEdgeLine = `{"task":{"uid":"t.0","edges":[5]}}` + "\n"

// TestJSONLUnknownEdgeKindDropped: an edge whose kind no release wrote, or
// that names no kind at all, drops on read rather than be misattributed;
// an edge that is not an object fails the line.
func TestJSONLUnknownEdgeKindDropped(t *testing.T) {
	var got *profiler.TaskTrace
	if err := ReadRecords(strings.NewReader(unknownEdgesLine), func(rec *Record) error {
		got = rec.Task
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []profiler.CausalEdge{{Kind: profiler.EdgeQueued, From: 1, To: 2}}
	if !reflect.DeepEqual(got.Edges, want) {
		t.Fatalf("edges of unknown, missing or null kind should drop, keeping the known one: %+v", got.Edges)
	}

	err := ReadRecords(strings.NewReader(nonObjectEdgeLine), func(*Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("an edge that is not an object: %v, want an error naming line 1", err)
	}
}

func TestBlameSinkMatchesInMemory(t *testing.T) {
	const s = int64(sim.Second)
	mk := func(uid string, submit, final int64) *profiler.TaskTrace {
		tr := profiler.NewTaskTrace(uid)
		tr.Submit = sim.Time(submit)
		tr.Scheduled = sim.Time(submit)
		tr.Launch = sim.Time(submit)
		tr.Start = sim.Time(submit)
		tr.End = sim.Time(final)
		tr.Final = sim.Time(final)
		return tr
	}
	traces := []*profiler.TaskTrace{
		mk("t.0", 0, 10*s), mk("t.1", 10*s, 30*s), mk("t.2", 2*s, 8*s),
	}
	traces[0].Backend, traces[1].Backend, traces[2].Backend = "flux.0", "dragon.0", "flux.1"
	sink := NewBlame()
	for _, tr := range traces {
		sink.OnTask(tr)
	}
	for i, sum := range sink.Summaries() {
		if sum.UID != traces[i].UID || sum.Backend != traces[i].Backend {
			t.Errorf("digest %d is %s on %q, want %s on %q", i, sum.UID, sum.Backend, traces[i].UID, traces[i].Backend)
		}
	}
	streaming := sink.Report()
	inMemory := analytics.BlameFromTraces(traces)
	// Stragglers are detector state, not decomposition; compare the rest.
	streaming.Stragglers = nil
	if !reflect.DeepEqual(streaming, inMemory) {
		t.Fatalf("streaming report differs from in-memory:\n got %+v\nwant %+v", streaming, inMemory)
	}
	if streaming.Blame.Total() != streaming.Makespan {
		t.Fatalf("decomposition not exact: %v != %v", streaming.Blame.Total(), streaming.Makespan)
	}
}

func TestBlameSinkStragglerDetector(t *testing.T) {
	sink := NewBlame()
	mk := func(uid string, span int64) *profiler.TaskTrace {
		tr := profiler.NewTaskTrace(uid)
		tr.Submit = 0
		tr.Scheduled = 0
		tr.Launch = 0
		tr.Start = 0
		tr.End = sim.Time(span)
		tr.Final = sim.Time(span)
		tr.Workflow = "train"
		return tr
	}
	// Warm the workflow distribution with uniform 10 s tasks.
	for i := 0; i < StragglerWarmup+8; i++ {
		tr := mk("t.normal", 10*int64(sim.Second))
		tr.AddEdge(profiler.CausalEdge{Kind: profiler.EdgeQueued, From: 0, To: sim.Time(sim.Second)})
		sink.OnTask(tr)
	}
	if len(sink.Stragglers()) != 0 {
		t.Fatalf("uniform tasks flagged as stragglers: %+v", sink.Stragglers())
	}
	// One task 10x the p99 with a dominant data stall must flag.
	slow := mk("t.slow", 100*int64(sim.Second))
	slow.AddEdge(profiler.CausalEdge{Kind: profiler.EdgeStage, From: 0, To: sim.Time(90 * sim.Second), Ref: "xfer.000099"})
	sink.OnTask(slow)
	flags := sink.Stragglers()
	if len(flags) != 1 {
		t.Fatalf("want 1 straggler, got %d: %+v", len(flags), flags)
	}
	f := flags[0]
	if f.UID != "t.slow" || f.Workflow != "train" || f.Dominant != "stage" || f.DominantRef != "xfer.000099" {
		t.Errorf("straggler = %+v, want t.slow of train dominated by stage xfer.000099", f)
	}
	if f.Why == "" {
		t.Error("straggler flag missing its why")
	}
}

func TestPerfettoFlowEvents(t *testing.T) {
	var buf bytes.Buffer
	pw := NewPerfettoWriter(&buf)
	// Transfer spills first, then the task that waited on it: the edge must
	// render as one s/f flow pair bound by a shared id.
	pw.Transfer(&profiler.TransferTrace{
		UID: "xfer.000001", Dataset: "d", Src: "sharedfs", Dst: "nvme:0",
		Start: 0, End: 2_000_000,
	})
	pw.Task(&profiler.TaskTrace{
		UID: "task.0000", Submit: 0, Scheduled: 0, Launch: 0,
		Start: 2_000_000, End: 5_000_000, Final: 5_000_000,
		Edges: []profiler.CausalEdge{
			{Kind: profiler.EdgeTransfer, From: 0, To: 2_000_000, Ref: "xfer.000001"},
			{Kind: profiler.EdgeQueued, From: 0, To: 1_000_000, Ref: "no-such-source"},
		},
	})
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := ValidateTraceEvents(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("export with flows fails validation: %v", err)
	}
	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var starts, finishes []TraceEvent
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "s":
			starts = append(starts, ev)
		case "f":
			finishes = append(finishes, ev)
		}
	}
	if len(starts) != 1 || len(finishes) != 1 {
		t.Fatalf("want exactly 1 flow pair (dangling ref draws nothing), got %d starts / %d finishes",
			len(starts), len(finishes))
	}
	s, f := starts[0], finishes[0]
	if s.ID != f.ID || s.ID == 0 {
		t.Errorf("flow ids not bound: s=%d f=%d", s.ID, f.ID)
	}
	if s.Name != "transfer" || f.Name != "transfer" || f.BP != "e" {
		t.Errorf("flow events malformed: s=%+v f=%+v", s, f)
	}
	if s.Pid != PidData || f.Pid != PidTasks {
		t.Errorf("flow crosses wrong tracks: s.pid=%d f.pid=%d", s.Pid, f.Pid)
	}
	if s.Ts != 2_000_000 || f.Ts != 2_000_000 {
		t.Errorf("flow anchored at wrong times: s.ts=%d f.ts=%d", s.Ts, f.Ts)
	}
}

func TestValidateTraceEventsFlowRules(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"flow without id", `{"traceEvents":[{"name":"e","ph":"s","ts":0,"pid":1,"tid":0}]}`},
		{"finish without start", `{"traceEvents":[{"name":"e","ph":"f","bp":"e","ts":0,"pid":1,"tid":0,"id":7}]}`},
	}
	for _, tc := range cases {
		if _, err := ValidateTraceEvents(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: validator accepted invalid flow", tc.name)
		}
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func(reverse bool) *Snapshot {
		s := NewSnapshot()
		keys := []string{"alpha", "mid.key", "zeta"}
		if reverse {
			keys = []string{"zeta", "mid.key", "alpha"}
		}
		for _, k := range keys {
			v := float64(len(k))
			s.Put(k, v)
			s.PutGauge(k, v, v+1)
		}
		return s
	}
	a, err := json.Marshal(build(false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(build(true))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot JSON depends on insertion order:\n a=%s\n b=%s", a, b)
	}
	// Keys must appear sorted so artifact diffs are stable.
	if ia, ib := bytes.Index(a, []byte(`"alpha"`)), bytes.Index(a, []byte(`"zeta"`)); ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("keys not sorted in output: %s", a)
	}
	// And the standard decoder must read it back unchanged.
	var back Snapshot
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, build(false)) {
		t.Fatalf("decode(encode(s)) != s:\n got %+v\nwant %+v", &back, build(false))
	}
}

func TestHistQuantileBucketBoundaries(t *testing.T) {
	var h Hist
	// Samples exactly on bucket edges: histMin (first bucket), a mid-range
	// edge, and sub-resolution values that land in the underflow bucket.
	edge := histMin * math.Pow(histGrowth, 100)
	for i := 0; i < 50; i++ {
		h.Observe(histMin)
		h.Observe(edge)
	}
	// Estimates stay within one bucket (~2%) of the true value and inside
	// the exact extrema.
	if got := h.Quantile(0.25); got < histMin || got > histMin*histGrowth {
		t.Errorf("p25 = %g, want within one bucket of %g", got, histMin)
	}
	if got := h.Quantile(0.99); got < edge/histGrowth || got > edge*histGrowth {
		t.Errorf("p99 = %g, want within one bucket of %g", got, edge)
	}
	if got := h.Quantile(0); got != histMin {
		t.Errorf("p0 = %g, want exact min %g", got, histMin)
	}
	if got := h.Quantile(1); got != edge {
		t.Errorf("p100 = %g, want exact max %g", got, edge)
	}

	// Underflow: everything below histMin folds into bucket 0 and reports
	// the exact minimum.
	var u Hist
	u.Observe(0)
	u.Observe(histMin / 2)
	if got := u.Quantile(0.5); got != 0 {
		t.Errorf("underflow p50 = %g, want exact min 0", got)
	}

	// Overflow: samples beyond the last bucket clamp to the exact maximum.
	var o Hist
	big := histMin * math.Pow(histGrowth, histBuckets+10)
	o.Observe(big)
	o.Observe(big * 2)
	if got := o.Quantile(0.5); got != big && got != big*2 {
		t.Errorf("overflow p50 = %g, want one of the exact samples", got)
	}
	if got := o.Quantile(0.99); got > o.max {
		t.Errorf("overflow p99 = %g exceeds exact max %g", got, o.max)
	}
}
