package obs

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

// --- Hist ---

// TestHistQuantileAccuracy checks the log-bucketed quantiles against exact
// sorted-sample values across three orders of magnitude.
func TestHistQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Hist
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over [1 ms, 1000 s].
		v := math.Exp(rng.Float64()*math.Log(1e6)) * 1e-3
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.01, 0.25, 0.50, 0.75, 0.90, 0.99} {
		want := samples[int(math.Round(q*float64(len(samples)-1)))]
		got := h.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.025 {
			t.Errorf("q=%.2f: got %g, want %g (rel err %.3f > 2.5%%)", q, got, want, rel)
		}
	}
	if h.Min() != samples[0] || h.Max() != samples[len(samples)-1] {
		t.Errorf("extrema: got [%g, %g], want [%g, %g]",
			h.Min(), h.Max(), samples[0], samples[len(samples)-1])
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	if got, want := h.Mean(), sum/float64(len(samples)); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("mean: got %g, want %g", got, want)
	}
}

// TestHistEdgeCases covers the empty histogram, clamping and the
// sub-resolution bucket.
func TestHistEdgeCases(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
	h.Observe(-3)              // clamps to 0
	h.Observe(math.NaN())      // clamps to 0
	h.Observe(1e-9)            // below histMin: sub-resolution bucket
	h.Observe(5)               // a real sample
	h.Observe(math.MaxFloat64) // overflow bucket
	if h.N() != 5 {
		t.Fatalf("n = %d, want 5", h.N())
	}
	if h.Min() != 0 {
		t.Errorf("min = %g, want 0", h.Min())
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Error("q=0/q=1 must return the exact extrema")
	}
	// Quantile estimates may never escape [min, max].
	for _, q := range []float64{0.1, 0.5, 0.9, 0.999} {
		if v := h.Quantile(q); v < h.Min() || v > h.Max() {
			t.Errorf("q=%g estimate %g outside [%g, %g]", q, v, h.Min(), h.Max())
		}
	}
}

// --- Registry ---

// TestRegistryNilSafe: every accessor on a nil registry returns usable
// dummies, so instrumented components need no nil checks.
func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Errorf("dummy counter = %d, want 3", c.Value())
	}
	g := r.Gauge("y")
	g.Set(sim.Time(5*sim.Second), 7)
	g.Add(sim.Time(6*sim.Second), 1)
	if g.Value() != 8 || g.Max() != 8 {
		t.Errorf("dummy gauge = %g/max %g, want 8/8", g.Value(), g.Max())
	}
	if n := len(g.Series().Points); n != 0 {
		t.Errorf("dummy gauge kept %d series points, want 0", n)
	}
	if r.Tick() != 0 {
		t.Errorf("nil registry tick = %v, want 0", r.Tick())
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
	snap.Put("merged", 1) // callers merge into it regardless
	if snap.Counters["merged"] != 1 {
		t.Error("snapshot Put failed")
	}
}

// TestGaugeTickCoalescing: within one tick only the latest sample is kept;
// crossing a tick boundary appends.
func TestGaugeTickCoalescing(t *testing.T) {
	r := NewRegistry(10 * sim.Second)
	g := r.Gauge("load")
	for i := 0; i < 100; i++ {
		g.Set(sim.Time(i)*sim.Time(sim.Second)/10, float64(i)) // 100 updates in 10 s
	}
	pts := g.Series().Points
	if len(pts) != 1 {
		t.Fatalf("coalesced series has %d points, want 1", len(pts))
	}
	if pts[0].V != 99 {
		t.Errorf("coalesced point = %g, want the latest (99)", pts[0].V)
	}
	g.Set(sim.Time(25*sim.Second), 7) // new tick bucket
	g.Set(sim.Time(61*sim.Second), 3)
	if pts = g.Series().Points; len(pts) != 3 {
		t.Fatalf("series has %d points after 3 tick buckets, want 3", len(pts))
	}
	if g.Max() != 99 || g.Value() != 3 {
		t.Errorf("max/last = %g/%g, want 99/3", g.Max(), g.Value())
	}
}

// TestRegistrySnapshotRender: instruments registered once are stable under
// repeated lookup, and the snapshot renders them all.
func TestRegistrySnapshotRender(t *testing.T) {
	r := NewRegistry(0)
	if r.Tick() != DefaultTick {
		t.Errorf("tick = %v, want DefaultTick", r.Tick())
	}
	if r.Counter("a") != r.Counter("a") {
		t.Error("repeated Counter lookup returned different instruments")
	}
	r.Counter("a").Add(5)
	r.Gauge("b").Set(sim.Time(sim.Second), 2)
	snap := r.Snapshot()
	if snap.Counters["a"] != 5 {
		t.Errorf("snapshot counter a = %g, want 5", snap.Counters["a"])
	}
	if snap.Gauges["b"].Last != 2 || snap.Gauges["b"].Max != 2 {
		t.Errorf("snapshot gauge b = %+v, want last=2 max=2", snap.Gauges["b"])
	}
	out := snap.Render()
	for _, name := range []string{"a", "b"} {
		if !strings.Contains(out, name) {
			t.Errorf("rendered snapshot missing %q:\n%s", name, out)
		}
	}
}

// --- record fixtures ---

func sampleTask() *profiler.TaskTrace {
	tr := profiler.NewTaskTrace("task.000042")
	tr.Submit = 1
	tr.Scheduled = 2
	tr.Launch = 3
	tr.Start = 4
	tr.End = 5_000_000
	tr.Final = 5_000_001
	tr.Failed = true
	tr.Backend = "flux"
	tr.Workflow = "ddmd"
	tr.Cores = 7
	tr.GPUs = 1
	tr.Retries = 2
	tr.ServiceRequests = 3
	tr.ServiceFailed = 1
	tr.ServiceWait = 99
	tr.BytesIn = 1 << 20
	tr.BytesOut = 1 << 10
	tr.StageIn = 250_000
	tr.StageOut = 125_000
	tr.DataHits = 4
	tr.DataMisses = 2
	return tr
}

func sampleTransfer() profiler.TransferTrace {
	return profiler.TransferTrace{
		Dataset: "ds.7", Task: "task.000042", Bytes: 1 << 28,
		Src: "lustre", Dst: "nvme", Node: 12, Start: 100, End: 5100,
	}
}

func sampleRequest() profiler.RequestTrace {
	return profiler.RequestTrace{
		UID: "req.9", Service: "model", Replica: "model/r1", Task: "task.000042",
		Issued: 10, Dispatched: 30, Done: 150, Batch: 8, Failed: false,
	}
}

// TestJSONLRoundTrip: every trace field survives sink → JSONL → ReadRecords
// → Trace().
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	if s.RetainTraces() {
		t.Error("JSONL must stream (RetainTraces false)")
	}
	task := sampleTask()
	s.OnTask(task)
	s.OnTransfer(sampleTransfer())
	s.OnRequest(sampleRequest())
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Records() != 3 {
		t.Fatalf("records = %d, want 3", s.Records())
	}

	var tasks []*profiler.TaskTrace
	var transfers []profiler.TransferTrace
	var requests []profiler.RequestTrace
	err := ReadRecords(&buf, func(rec *Record) error {
		switch {
		case rec.Task != nil:
			tasks = append(tasks, rec.Task.Trace())
		case rec.Transfer != nil:
			transfers = append(transfers, rec.Transfer.Trace())
		case rec.Request != nil:
			requests = append(requests, rec.Request.Trace())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || len(transfers) != 1 || len(requests) != 1 {
		t.Fatalf("decoded %d/%d/%d records, want 1/1/1", len(tasks), len(transfers), len(requests))
	}
	if !reflect.DeepEqual(tasks[0], task) {
		t.Errorf("task round-trip drifted:\n got %+v\nwant %+v", tasks[0], task)
	}
	if !reflect.DeepEqual(transfers[0], sampleTransfer()) {
		t.Errorf("transfer round-trip drifted: %+v", transfers[0])
	}
	if !reflect.DeepEqual(requests[0], sampleRequest()) {
		t.Errorf("request round-trip drifted: %+v", requests[0])
	}
}

// TestJSONLRejectsMalformed: a bad line aborts the read with its line
// number.
func TestJSONLRejectsMalformed(t *testing.T) {
	in := strings.NewReader("{\"task\":{\"uid\":\"a\"}}\nnot json\n")
	err := ReadRecords(in, func(*Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 parse error, got %v", err)
	}
}

// --- Perfetto export ---

// TestPerfettoExport: the export validates against the trace-event schema,
// is byte-deterministic, and skips spans whose endpoints never happened.
func TestPerfettoExport(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		pw := NewPerfettoWriter(&buf)
		task := NewTaskRecord(sampleTask())
		pw.Record(&Record{Task: &task})
		xfer := NewTransferRecord(sampleTransfer())
		pw.Record(&Record{Transfer: &xfer})
		req := NewRequestRecord(sampleRequest())
		pw.Record(&Record{Request: &req})
		// A task that never started: only task/schedule spans may emit.
		ghost := NewTaskRecord(profiler.NewTaskTrace("task.ghost"))
		ghost.Submit, ghost.Scheduled, ghost.Final = 10, 20, 30
		pw.Record(&Record{Task: &ghost})
		if err := pw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	out := render()
	n, err := ValidateTraceEvents(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("export failed validation: %v\n%s", err, out)
	}
	if n == 0 {
		t.Fatal("export produced no events")
	}
	if again := render(); !bytes.Equal(out, again) {
		t.Error("export is not byte-deterministic")
	}
	// Spot-check span names made it through.
	for _, want := range []string{`"task"`, `"exec"`, `"transfer"`, `"request"`, `"serve"`, `"stage-in"`} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("export missing %s span", want)
		}
	}
	// The ghost task has no start: no exec span on its track, but its
	// lifecycle span exists. Count exec spans — exactly one (the full task).
	if c := bytes.Count(out, []byte(`"name":"exec"`)); c != 1 {
		t.Errorf("found %d exec spans, want 1 (unstarted task must not emit one)", c)
	}
}

// TestValidateTraceEventsRejects: the validator catches the failure modes
// the CI smoke job guards against.
func TestValidateTraceEventsRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"not json", `what`},
		{"missing array", `{"displayTimeUnit":"ms"}`},
		{"missing name", `{"traceEvents":[{"ph":"X","ts":1,"pid":1,"tid":0}]}`},
		{"bad phase", `{"traceEvents":[{"name":"a","ph":"Q","ts":1,"pid":1,"tid":0}]}`},
		{"negative ts", `{"traceEvents":[{"name":"a","ph":"X","ts":-5,"pid":1,"tid":0}]}`},
		{"negative dur", `{"traceEvents":[{"name":"a","ph":"X","ts":5,"dur":-1,"pid":1,"tid":0}]}`},
	}
	for _, tc := range cases {
		if _, err := ValidateTraceEvents(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
	// And the happy path.
	ok := `{"traceEvents":[{"name":"a","ph":"M","pid":1,"tid":0},{"name":"b","ph":"X","ts":0,"dur":3,"pid":1,"tid":0}]}`
	if n, err := ValidateTraceEvents(strings.NewReader(ok)); err != nil || n != 2 {
		t.Errorf("valid doc: n=%d err=%v, want 2, nil", n, err)
	}
}

// --- sink composition ---

// blindSink implements TraceSink without the TraceRetainer capability.
type blindSink struct{}

func (blindSink) OnTask(*profiler.TaskTrace)        {}
func (blindSink) OnTransfer(profiler.TransferTrace) {}
func (blindSink) OnRequest(profiler.RequestTrace)   {}
func (blindSink) Flush() error                      { return nil }

// TestTeeRetention: a tee retains if any member retains — or doesn't
// declare (the safe default).
func TestTeeRetention(t *testing.T) {
	cases := []struct {
		name string
		tee  *Tee
		want bool
	}{
		{"memory+fold", NewTee(NewMemory(), NewFold()), true},
		{"fold only", NewTee(NewFold()), false},
		{"jsonl+fold", NewTee(NewJSONL(&bytes.Buffer{}), NewFold()), false},
		{"undeclared member", NewTee(NewFold(), blindSink{}), true},
		{"empty", NewTee(), false},
	}
	for _, tc := range cases {
		if got := tc.tee.RetainTraces(); got != tc.want {
			t.Errorf("%s: RetainTraces = %t, want %t", tc.name, got, tc.want)
		}
	}
}

// TestTeeFanout: records reach every member once.
func TestTeeFanout(t *testing.T) {
	f1, f2 := NewFold(), NewFold()
	tee := NewTee(f1, f2)
	tee.OnTask(sampleTask())
	tee.OnTransfer(sampleTransfer())
	tee.OnRequest(sampleRequest())
	if err := tee.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, f := range []*Fold{f1, f2} {
		if f.Tasks() != 1 || f.Transfers() != 1 || f.Requests() != 1 {
			t.Errorf("member %d saw %d/%d/%d records, want 1/1/1",
				i, f.Tasks(), f.Transfers(), f.Requests())
		}
	}
}
