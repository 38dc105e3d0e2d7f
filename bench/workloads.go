package main

// The five workloads. Every rep builds a fresh session from its seed, runs
// one closed batch to quiescence, and analyses the result the way the
// paper's figures do. Each call into a layer sits in its own span.

import (
	"fmt"
	"strconv"
	"time"

	"rpgo/internal/agent"
	"rpgo/internal/analytics"
	"rpgo/internal/campaign"
	"rpgo/internal/core"
	"rpgo/internal/experiments"
	"rpgo/internal/metrics"
	"rpgo/internal/obs"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/states"
	wl "rpgo/internal/workload"
)

const (
	cpn = experiments.CoresPerNode
	gpn = 8 // Frontier GPUs per node
)

// repOut is what a rep hands back once its clock has stopped.
type repOut struct {
	tasks  int
	digest uint64
}

// workload is one input set of the benchmark. BENCHMARK.json and
// README.md say why each is in the set.
type workload struct {
	name string
	// pin is the fold digest of reps 0..minReps-1 from defaultSeed.
	pin uint64
	run func(seed uint64, c *clock) (repOut, error)
}

var catalog = []workload{
	{
		name: "hybrid_null",
		pin:  0x43786159aea158d3,
		run:  hybrid{nodes: 64, instances: 8}.run,
	},
	{
		name: "impeccable_flux",
		pin:  0x0501ed4e0766e5f4,
		run:  impeccable{nodes: 1024, backend: spec.BackendFlux}.run,
	},
	{
		name: "impeccable_srun",
		pin:  0x3c5c82e126bad7bb,
		run:  impeccable{nodes: 1024, backend: spec.BackendSrun}.run,
	},
	{
		name: "staging_handoff",
		pin:  0xe5e833ce64990b20,
		run:  handoff{nodes: 8, stages: 3, width: 448, bytes: 1 << 30}.run,
	},
	{
		name: "stream_sharded",
		pin:  0xba4d02303a6f3d36,
		run:  stream{nodes: 1024, pilots: 16, tasks: 16384, wave: 256, shards: 2}.run,
	},
}

// sinkF keeps the analysis results live.
var sinkF float64

// hybrid is Experiment flux+dragon with zero-duration tasks (Table 1):
// nodes×cpn×4 mixed executable/function tasks, retained traces.
type hybrid struct{ nodes, instances int }

func (w hybrid) run(seed uint64, c *clock) (repOut, error) {
	c.mark("core.session")
	sess := core.NewSession(core.Config{Seed: seed, Profile: c.prof})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes: w.nodes, SMT: 1, Partitions: experiments.HybridPartitions(w.instances),
	})
	if err != nil {
		return repOut{}, err
	}
	tm := sess.TaskManager(pilot)
	c.mark("workload.gen")
	n := wl.FullDensityCount(w.nodes, cpn)
	tds := wl.Mixed(n/2, n-n/2, 0)
	c.mark("core.submit")
	c.submit(tm, tds)
	c.mark("sim.wait")
	err = tm.Wait()
	c.mark("metrics.analyze")
	traces := sess.Profiler.Tasks()
	sinkF = metrics.ThroughputOf(traces).Avg + metrics.Makespan(traces).Seconds()
	c.stop(sess.MetricsSnapshot)
	if err != nil {
		return repOut{}, err
	}
	return retained(tm.Tasks(), traces, n)
}

// impeccable is the Fig 8 IMPECCABLE.v2 campaign on one pilot.
type impeccable struct {
	nodes    int
	backend  spec.Backend // BackendFlux, or BackendSrun for RP's default executor
	maxIters int          // zero runs the full campaign
}

func (w impeccable) run(seed uint64, c *clock) (repOut, error) {
	c.mark("core.session")
	sess := core.NewSession(core.Config{Seed: seed, Profile: c.prof})
	var parts []spec.PartitionConfig
	if w.backend == spec.BackendFlux {
		parts = experiments.FluxPartitions(1)
	}
	pilot, err := sess.SubmitPilot(spec.PilotDescription{Nodes: w.nodes, SMT: 1, Partitions: parts})
	if err != nil {
		return repOut{}, err
	}
	tm := sess.TaskManager(pilot)
	c.mark("campaign.start")
	camp := campaign.New(campaign.Config{Nodes: w.nodes, MaxIters: w.maxIters, MaxRetries: 2}, sess, tm)
	if err := camp.Start(); err != nil {
		return repOut{}, err
	}
	c.mark("sim.wait")
	err = tm.Wait()
	c.mark("metrics.analyze")
	traces := sess.Profiler.Tasks()
	start, end := execWindow(traces)
	conc := metrics.ConcurrencySeries(traces, 400)
	rate := metrics.RateSeries(traces, 30*sim.Second, 400)
	sinkF = metrics.Makespan(traces).Seconds() + conc.Max() + rate.Mean() +
		metrics.Utilization(traces, w.nodes*cpn, start, end) +
		metrics.UtilizationGPU(traces, w.nodes*gpn, start, end)
	c.mark("analytics.blame")
	sinkF += analytics.BlameFromTraces(traces).Makespan.Seconds()
	c.stop(sess.MetricsSnapshot)
	if err != nil {
		return repOut{}, err
	}
	if !camp.Done() {
		return repOut{}, fmt.Errorf("campaign did not finish")
	}
	return retained(tm.Tasks(), traces, camp.TotalSubmitted())
}

// handoff is a producer→consumer pipeline under data-aware placement: each
// stage is submitted from the completion callback of the previous one.
type handoff struct {
	nodes, stages, width int
	bytes                int64
}

func (w handoff) run(seed uint64, c *clock) (repOut, error) {
	c.mark("core.session")
	sess := core.NewSession(core.Config{Seed: seed, Profile: c.prof})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes: w.nodes, SMT: 1, Partitions: experiments.FluxPartitions(1), Placement: spec.PlaceDataAware,
	})
	if err != nil {
		return repOut{}, err
	}
	tm := sess.TaskManager(pilot)
	c.mark("workload.gen")
	stages := wl.Handoff(w.stages, w.width, w.bytes, sim.Second)
	for s, tds := range stages {
		wl.Tag(tds, "handoff", "stage."+strconv.Itoa(s))
	}
	next, pending := 0, 0
	submitNext := func() {
		if next < len(stages) {
			pending = len(stages[next])
			c.submit(tm, stages[next])
			next++
		}
	}
	tm.OnComplete = func(*agent.Task) {
		pending--
		if pending == 0 {
			submitNext()
		}
	}
	c.mark("core.submit")
	submitNext()
	c.mark("sim.wait")
	err = tm.Wait()
	c.mark("metrics.analyze")
	traces, transfers := sess.Profiler.Tasks(), sess.Profiler.Transfers()
	sum := metrics.SummarizeData(traces, transfers)
	sinkF = metrics.Makespan(traces).Seconds() + float64(sum.BytesMoved)
	c.stop(sess.MetricsSnapshot)
	if err != nil {
		return repOut{}, err
	}
	out, err := retained(tm.Tasks(), traces, w.stages*w.width)
	out.digest = pair(out.digest, transferDigest(transfers))
	return out, err
}

// stream is the wave-fed null campaign on a sharded session: one client
// domain plus one domain per pilot, each folding its own completed traces.
// Its shard workers take turns on the benchmark's one P, so a rep costs
// the host the CPU time of every shard.
type stream struct{ nodes, pilots, tasks, wave, shards int }

func (w stream) run(seed uint64, c *clock) (repOut, error) {
	c.mark("core.session")
	folds := make([]*obs.Fold, w.pilots+1)
	ss := core.NewShardedSession(core.ShardedConfig{
		Seed: seed, Domains: w.pilots + 1, Shards: w.shards, Profile: c.prof,
		Sink: func(d int) profiler.TraceSink {
			folds[d] = obs.NewFold()
			return folds[d]
		},
	})
	nodes := platform.SplitNodes(w.nodes, w.pilots)
	share := platform.SplitNodes(w.tasks, w.pilots)
	feeds := make([]*feeder, w.pilots)
	for i := range feeds {
		pilot, err := ss.SubmitPilot(i+1, spec.PilotDescription{
			UID: fmt.Sprintf("pilot.%04d", i), Nodes: nodes[i], SMT: 1, Partitions: experiments.FluxPartitions(1),
		})
		if err != nil {
			return repOut{}, err
		}
		f := &feeder{c: c, tm: ss.TaskManager(pilot), total: share[i], wave: w.wave}
		f.tm.OnComplete = f.done
		feeds[i] = f
	}
	c.mark("workload.gen")
	for _, f := range feeds {
		f.gen()
	}
	c.mark("core.submit")
	for _, f := range feeds {
		f.flush()
	}
	c.mark("sim.wait")
	var err error
	for _, f := range feeds {
		// The first Wait drives every domain; the rest check their counts.
		if err = f.tm.Wait(); err != nil {
			break
		}
	}
	c.stop(ss.MetricsSnapshot)
	if err != nil {
		return repOut{}, err
	}
	for i, f := range feeds {
		if f.tm.SubmittedCount() != f.total || f.tm.FinalCount() != f.total {
			return repOut{}, fmt.Errorf("pilot %d: %d of %d submitted, %d final",
				i, f.tm.SubmittedCount(), f.total, f.tm.FinalCount())
		}
	}
	tasks, ran, failed := 0, 0, 0
	for _, f := range folds {
		tasks += f.Tasks()
		ran += f.Ran()
		failed += f.Failed()
	}
	if tasks != w.tasks || ran != w.tasks || failed != 0 {
		return repOut{}, fmt.Errorf("folds saw %d tasks, %d ran, %d failed, want %d", tasks, ran, failed, w.tasks)
	}
	return repOut{tasks: w.tasks, digest: foldDigest(folds)}, nil
}

// feeder keeps one pilot's in-flight work bounded: when it drops to half a
// wave, the completion callback makes and submits waves until two are in
// flight again.
type feeder struct {
	c           *clock
	tm          *core.TaskManager
	total, wave int
	made, final int
	ready       [][]*spec.TaskDescription
}

func (f *feeder) gen() {
	for f.made-f.final < 2*f.wave && f.made < f.total {
		n := min(f.wave, f.total-f.made)
		f.ready = append(f.ready, wl.Null(n))
		f.made += n
	}
}

func (f *feeder) flush() {
	for _, tds := range f.ready {
		f.c.submit(f.tm, tds)
	}
	clear(f.ready)
	f.ready = f.ready[:0]
}

func (f *feeder) done(*agent.Task) {
	f.final++
	if f.made-f.final <= f.wave/2 && f.made < f.total {
		t := time.Now()
		f.gen()
		f.c.feedGenNs += time.Since(t).Nanoseconds()
		f.flush()
	}
}

// retained checks a retained rep — every submitted task DONE, one trace
// each — and digests its traces.
func retained(tasks []*agent.Task, traces []*profiler.TaskTrace, want int) (repOut, error) {
	if len(tasks) != want || len(traces) != want {
		return repOut{}, fmt.Errorf("%d tasks and %d traces, want %d", len(tasks), len(traces), want)
	}
	for _, t := range tasks {
		if t.State != states.TaskDone || t.Trace.Failed {
			return repOut{}, fmt.Errorf("task %s ended %s", t.TD.UID, t.State)
		}
	}
	return repOut{tasks: want, digest: traceDigest(traces)}, nil
}

// execWindow returns [first start, last end] over the tasks that ran.
func execWindow(traces []*profiler.TaskTrace) (sim.Time, sim.Time) {
	var first, last sim.Time = -1, -1
	for _, t := range traces {
		if t.Ran() {
			if first < 0 || t.Start < first {
				first = t.Start
			}
			last = max(last, t.End)
		}
	}
	return max(first, 0), max(last, 0)
}

// fnv64a is an allocation-free 64-bit FNV-1a hash.
type fnv64a uint64

const fnvOffset fnv64a = 14695981039346656037

func (h *fnv64a) write(b []byte) {
	for _, x := range b {
		*h ^= fnv64a(x)
		*h *= 1099511628211
	}
}

// add folds a rep digest into a running digest.
func (h *fnv64a) add(d uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(d >> (8 * i))
	}
	h.write(b[:])
}

func appendInts(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = strconv.AppendInt(append(b, '|'), v, 10)
	}
	return b
}

// traceDigest hashes every task-trace field in submission order. The bytes
// are those of the golden fingerprint tests in internal/experiments, so a
// rep's digest equals their fingerprint of the same run. Event counts are
// not hashed: a change may use fewer events for the same result.
func traceDigest(traces []*profiler.TaskTrace) uint64 {
	h := fnvOffset
	var buf [256]byte
	for _, t := range traces {
		b := append(buf[:0], t.UID...)
		b = appendInts(b, int64(t.Submit), int64(t.Scheduled), int64(t.Launch),
			int64(t.Start), int64(t.End), int64(t.Final))
		b = strconv.AppendBool(append(b, '|'), t.Failed)
		b = append(append(b, '|'), t.Backend...)
		b = append(append(b, '|'), t.Workflow...)
		b = appendInts(b, int64(t.Cores), int64(t.GPUs), int64(t.Retries),
			int64(t.ServiceRequests), int64(t.ServiceFailed), int64(t.ServiceWait),
			t.BytesIn, t.BytesOut, int64(t.StageIn), int64(t.StageOut),
			int64(t.DataHits), int64(t.DataMisses))
		h.write(append(b, '\n'))
	}
	return uint64(h)
}

// transferDigest hashes every data transfer in the order the profiler
// recorded them, in the bytes of the repository's transfer fingerprint.
func transferDigest(tts []profiler.TransferTrace) uint64 {
	h := fnvOffset
	var buf [256]byte
	for _, tt := range tts {
		b := append(buf[:0], tt.Dataset...)
		b = append(append(b, '|'), tt.Task...)
		b = appendInts(b, tt.Bytes)
		b = append(append(b, '|'), tt.Src...)
		b = append(append(b, '|'), tt.Dst...)
		b = appendInts(b, int64(tt.Node), int64(tt.Start), int64(tt.End))
		h.write(append(b, '\n'))
	}
	return uint64(h)
}

// pair folds two digests into one.
func pair(a, b uint64) uint64 {
	h := fnvOffset
	h.add(a)
	h.add(b)
	return uint64(h)
}

// foldDigest hashes each domain's fold: tasks, ran, failed, makespan and
// execution window.
func foldDigest(folds []*obs.Fold) uint64 {
	h := fnvOffset
	var buf [128]byte
	for d, f := range folds {
		start, end := f.ExecWindow()
		b := strconv.AppendInt(buf[:0], int64(d), 10)
		b = appendInts(b, int64(f.Tasks()), int64(f.Ran()), int64(f.Failed()),
			int64(f.Makespan()), int64(start), int64(end))
		h.write(append(b, '\n'))
	}
	return uint64(h)
}
