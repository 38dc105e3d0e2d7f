package experiments

// Property tests for the streaming Fold sink: on the same fixed-seed runs
// the golden tests pin, the O(1)-memory fold must reproduce what
// internal/metrics computes from fully retained traces — exactly for
// counting statistics (throughput average, utilization, makespan), and
// within the log-histogram's resolution for percentiles. Each test tees
// the fold with a Memory sink so the retained traces stay available for
// the reference computation, and re-checks the golden fingerprint to prove
// attaching a sink does not perturb the simulation.

import (
	"math"
	"sort"
	"testing"

	"rpgo/internal/core"
	"rpgo/internal/metrics"
	"rpgo/internal/obs"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// oneSink hands every domain the same sink; a one-pilot RunImpeccable
// campaign has a single domain.
func oneSink(s profiler.TraceSink) func(int) profiler.TraceSink {
	return func(int) profiler.TraceSink { return s }
}

// approxEq reports whether got is within rel of want (relative error).
func approxEq(got, want, rel float64) bool {
	if got == want {
		return true
	}
	denom := math.Abs(want)
	if denom == 0 {
		return math.Abs(got) <= rel
	}
	return math.Abs(got-want)/denom <= rel
}

// exactQuantile mirrors the obs.Hist rank convention on raw samples:
// the value at sorted index round(q·(n−1)).
func exactQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(math.Round(q*float64(len(s)-1)))]
}

// execDurations extracts exec durations (seconds) of ran tasks.
func execDurations(tasks []*profiler.TaskTrace) []float64 {
	var out []float64
	for _, tr := range tasks {
		if tr.Ran() {
			out = append(out, tr.End.Sub(tr.Start).Seconds())
		}
	}
	return out
}

// checkFoldAgainstTraces asserts every fold aggregate against the
// reference computation over retained traces. totalCPU is the capacity
// denominator for utilization.
func checkFoldAgainstTraces(t *testing.T, f *obs.Fold, tasks []*profiler.TaskTrace, totalCPU int) {
	t.Helper()

	if f.Tasks() != len(tasks) {
		t.Errorf("fold tasks = %d, want %d", f.Tasks(), len(tasks))
	}
	failed, retries := 0, 0
	for _, tr := range tasks {
		if tr.Failed {
			failed++
		}
		retries += tr.Retries
	}
	if f.Failed() != failed {
		t.Errorf("fold failed = %d, want %d", f.Failed(), failed)
	}
	if f.Retries() != retries {
		t.Errorf("fold retries = %d, want %d", f.Retries(), retries)
	}

	// Throughput: Tasks, Span and Avg are defined to be exact; Peak is a
	// fixed-bucket lower bound of the sliding-window maximum.
	want := metrics.ThroughputOf(tasks)
	got := f.Throughput()
	if got.Tasks != want.Tasks {
		t.Errorf("fold throughput tasks = %d, want %d", got.Tasks, want.Tasks)
	}
	if got.Span != want.Span {
		t.Errorf("fold throughput span = %v, want %v", got.Span, want.Span)
	}
	if !approxEq(got.Avg, want.Avg, 1e-12) {
		t.Errorf("fold throughput avg = %g, want %g", got.Avg, want.Avg)
	}
	if got.Peak <= 0 || got.Peak > want.Peak {
		t.Errorf("fold throughput peak = %g, want in (0, %g]", got.Peak, want.Peak)
	}

	// Utilization: same core-seconds, summed in a different order — allow
	// only float-accumulation noise.
	start, end := execWindow(tasks)
	wantUtil := metrics.Utilization(tasks, totalCPU, start, end)
	if gotUtil := f.Utilization(totalCPU); !approxEq(gotUtil, wantUtil, 1e-9) {
		t.Errorf("fold utilization = %g, want %g", gotUtil, wantUtil)
	}
	if fs, fe := f.ExecWindow(); fs != start || fe != end {
		t.Errorf("fold exec window = [%v, %v], want [%v, %v]", fs, fe, start, end)
	}

	if gotMk, wantMk := f.Makespan(), metrics.Makespan(tasks); gotMk != wantMk {
		t.Errorf("fold makespan = %v, want %v", gotMk, wantMk)
	}

	// Percentiles: the log-bucketed histogram resolves ~2% per bucket.
	durs := execDurations(tasks)
	for _, q := range []float64{0.50, 0.99} {
		wantQ := exactQuantile(durs, q)
		if gotQ := f.DurationQuantile(q); !approxEq(gotQ, wantQ, 0.025) {
			t.Errorf("fold duration p%.0f = %gs, want %gs (±2.5%%)", q*100, gotQ, wantQ)
		}
	}
	wantMean := 0.0
	for _, d := range durs {
		wantMean += d
	}
	if len(durs) > 0 {
		wantMean /= float64(len(durs))
	}
	if gotMean := f.MeanDuration(); !approxEq(gotMean, wantMean, 1e-9) {
		t.Errorf("fold mean duration = %gs, want %gs", gotMean, wantMean)
	}
}

// TestFoldMatchesMetricsFig8 runs the golden Fig 8 campaign with a
// Memory+Fold tee and checks fold-derived statistics against
// internal/metrics over the retained traces.
func TestFoldMatchesMetricsFig8(t *testing.T) {
	fold := obs.NewFold()
	res := RunImpeccable(ImpeccableConfig{
		Nodes:    128,
		Backend:  spec.BackendFlux,
		Seed:     424242,
		MaxIters: 6,
		Sink:     oneSink(obs.NewTee(obs.NewMemory(), fold)),
	})
	if len(res.Traces) == 0 {
		t.Fatal("tee with a Memory member must retain traces")
	}
	// A retaining tee must not change a single trace field.
	if got := fingerprintTraces(res.Traces); got != goldenFig8Tasks {
		t.Fatalf("sink attachment perturbed the run: fingerprint %#x, want %#x",
			got, goldenFig8Tasks)
	}
	checkFoldAgainstTraces(t, fold, res.Traces, 128*CoresPerNode)
	if gotUtil := fold.Utilization(128 * CoresPerNode); !approxEq(gotUtil, res.CPUUtil, 1e-9) {
		t.Errorf("fold utilization = %g, want campaign CPUUtil %g", gotUtil, res.CPUUtil)
	}
	if gotGPU := fold.UtilizationGPU(128 * 8); !approxEq(gotGPU, res.GPUUtil, 1e-9) {
		t.Errorf("fold GPU utilization = %g, want campaign GPUUtil %g", gotGPU, res.GPUUtil)
	}
	if fold.Makespan() != res.Makespan {
		t.Errorf("fold makespan = %v, want campaign %v", fold.Makespan(), res.Makespan)
	}
}

// TestFoldMatchesMetricsHybrid repeats the property on the golden hybrid
// flux+dragon throughput cell.
func TestFoldMatchesMetricsHybrid(t *testing.T) {
	fold := obs.NewFold()
	cfg := HybridCell(8, 2, 0, 99, 1)
	sess := core.NewSession(core.Config{
		Seed: cfg.Seed,
		Sink: obs.NewTee(obs.NewMemory(), fold),
	})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes: cfg.Nodes, SMT: 1, Partitions: cfg.Partitions,
	})
	if err != nil {
		t.Fatal(err)
	}
	tm := sess.TaskManager(pilot)
	tm.Submit(cfg.buildWorkload())
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	tasks := sess.Profiler.Tasks()
	if got := fingerprintTraces(tasks); got != goldenHybridTasks {
		t.Fatalf("sink attachment perturbed the run: fingerprint %#x, want %#x",
			got, goldenHybridTasks)
	}
	checkFoldAgainstTraces(t, fold, tasks, cfg.Nodes*CoresPerNode)
}

// TestFoldStreamingMatchesRetained runs the same fixed-seed campaign twice
// — once teed with a retaining Memory sink, once with the Fold alone in
// streaming mode — and demands identical fold aggregates: dropping
// retention must not change a single observed record.
func TestFoldStreamingMatchesRetained(t *testing.T) {
	cfg := ImpeccableConfig{Nodes: 32, Backend: spec.BackendFlux, Seed: 7, MaxIters: 2}

	retained := obs.NewFold()
	cfg.Sink = oneSink(obs.NewTee(obs.NewMemory(), retained))
	resRetained := RunImpeccable(cfg)
	if len(resRetained.Traces) == 0 {
		t.Fatal("retaining run kept no traces")
	}

	streaming := obs.NewFold()
	cfg.Sink = oneSink(streaming)
	resStreaming := RunImpeccable(cfg)
	if len(resStreaming.Traces) != 0 {
		t.Fatalf("streaming run retained %d traces, want 0", len(resStreaming.Traces))
	}

	if streaming.Tasks() != retained.Tasks() || streaming.Failed() != retained.Failed() ||
		streaming.Ran() != retained.Ran() || streaming.Retries() != retained.Retries() {
		t.Errorf("counts differ: streaming %d/%d/%d/%d, retained %d/%d/%d/%d",
			streaming.Tasks(), streaming.Failed(), streaming.Ran(), streaming.Retries(),
			retained.Tasks(), retained.Failed(), retained.Ran(), retained.Retries())
	}
	if streaming.Makespan() != retained.Makespan() {
		t.Errorf("makespan differs: streaming %v, retained %v",
			streaming.Makespan(), retained.Makespan())
	}
	st, rt := streaming.Throughput(), retained.Throughput()
	if st != rt {
		t.Errorf("throughput differs: streaming %+v, retained %+v", st, rt)
	}
	if su, ru := streaming.Utilization(32*CoresPerNode), retained.Utilization(32*CoresPerNode); su != ru {
		t.Errorf("utilization differs: streaming %g, retained %g", su, ru)
	}
	for _, q := range []float64{0.50, 0.99} {
		if sq, rq := streaming.DurationQuantile(q), retained.DurationQuantile(q); sq != rq {
			t.Errorf("p%.0f differs: streaming %g, retained %g", q*100, sq, rq)
		}
	}
}

// TestFoldRequestAggregates drives a fixed-replica inference endpoint with
// a teed fold and checks the request-side folds against the endpoint's own
// statistics and the retained request traces.
func TestFoldRequestAggregates(t *testing.T) {
	fold := obs.NewFold()
	sess := core.NewSession(core.Config{
		Seed: 4242,
		Sink: obs.NewTee(obs.NewMemory(), fold),
	})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes: 4,
		Partitions: []spec.PartitionConfig{
			{Backend: spec.BackendDragon, Instances: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sd := defaultServiceDesc()
	sd.Replicas = 2
	h, err := pilot.DeployService(sd)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := sess.Rand("client.arrivals")
	start := sess.Engine.Now()
	const rate = 40.0
	var gen func()
	gen = func() {
		if sess.Engine.Now().Sub(start) >= 2*sim.Minute {
			return
		}
		h.Call(func(sim.Time, bool) {})
		sess.Engine.After(sim.Seconds(arrivals.Exp(1/rate)), gen)
	}
	h.Ready(gen)
	sess.Run()

	st := h.Stats()
	if got, want := fold.Requests(), int(st.Served+st.Failed); got != want {
		t.Errorf("fold requests = %d, want served+failed = %d", got, want)
	}
	if got := fold.RequestsFailed(); got != int(st.Failed) {
		t.Errorf("fold failed requests = %d, want %d", got, st.Failed)
	}

	// Percentiles against the retained request traces, with the histogram's
	// bucket tolerance.
	reqs := sess.Profiler.Requests()
	if len(reqs) != fold.Requests() {
		t.Fatalf("retained %d request traces, fold saw %d", len(reqs), fold.Requests())
	}
	var lats, waits []float64
	var batchSum, batchN float64
	for _, r := range reqs {
		lats = append(lats, r.Latency().Seconds())
		waits = append(waits, r.QueueWait().Seconds())
		if r.Batch > 0 {
			batchSum += float64(r.Batch)
			batchN++
		}
	}
	for _, q := range []float64{0.50, 0.99} {
		if got, want := fold.LatencyQuantile(q), exactQuantile(lats, q); !approxEq(got, want, 0.025) {
			t.Errorf("fold latency p%.0f = %gs, want %gs (±2.5%%)", q*100, got, want)
		}
		if got, want := fold.QueueWaitQuantile(q), exactQuantile(waits, q); !approxEq(got, want, 0.025) {
			t.Errorf("fold queue wait p%.0f = %gs, want %gs (±2.5%%)", q*100, got, want)
		}
	}
	if batchN > 0 {
		if got, want := fold.MeanBatch(), batchSum/batchN; !approxEq(got, want, 1e-9) {
			t.Errorf("fold mean batch = %g, want %g", got, want)
		}
	}
}
