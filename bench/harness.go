package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// defaultSeed matches rpbench's default base seed.
const defaultSeed = 20250916

// minReps is the fewest timed reps a run makes. It keeps p10 and p90
// resolved (ten samples beyond each), and the pinned digests cover reps
// 0..minReps-1.
const minReps = 100

// procs is every workload's GOMAXPROCS. The simulator is single-threaded,
// and a sweep runs a rep on every core, so no P sits idle; a lone rep with
// an idle second P would get the GC's idle mark worker there, and measure
// that core's neighbours as well. stream_sharded's shard workers take
// turns on the one P.
const procs = 1

// options selects what runWorkload measures.
type options struct {
	seed uint64
	// reps is the fewest timed reps, and seconds the least time the timed
	// reps take: the run stops once it has both. The traced phase stops
	// at a quarter of either.
	reps, seconds int
	trace         bool
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// result is one workload's outcome: what the report prints, what -out
// records, and what a child process hands its parent.
type result struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Reps       int      `json:"reps"`
	TracedReps int      `json:"traced_reps"`
	Tasks      int      `json:"tasks"`
	Ops        int      `json:"ops"`
	OpsFailed  int      `json:"ops_failed"`
	Digest     string   `json:"digest"`
	Pin        string   `json:"pin"`
	Errors     []string `json:"errors,omitempty"`
	EndToEnd   []metric `json:"end_to_end"`
	// Info holds the measured host times behind the gated ones, the median
	// and p90, and the calibration loop's p10: reported, not gated (see
	// README.md, "Why p10, at the reference speed").
	Info     []metric `json:"info"`
	PerLayer []metric `json:"per_layer,omitempty"`
	// Spans are the traced reps' spans as trace events (-trace FILE).
	Spans []traceEvent `json:"spans,omitempty"`
}

func (r *result) correct() bool { return r.OpsFailed == 0 }

// op runs one rep. It fails if the rep panics or returns an error (Wait
// failed, a task did not end DONE, or the task count is wrong).
func (r *result) op(w *workload, seed uint64, c *clock, traced bool) (out repOut, ok bool) {
	r.Ops++
	defer func() {
		if p := recover(); p != nil {
			r.fail(seed, fmt.Errorf("panic: %v", p))
			ok = false
		}
	}()
	c.begin(traced)
	out, err := w.run(seed, c)
	if err != nil {
		r.fail(seed, err)
		return out, false
	}
	return out, true
}

func (r *result) fail(seed uint64, err error) {
	r.OpsFailed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, fmt.Sprintf("seed %d: %v", seed, err))
	}
}

// runWorkload runs one warm-up rep, then the timed untraced reps (rep r
// uses seed+r) until it has made o.reps of them and o.seconds have passed,
// then — with o.trace — traced reps replaying the first seeds. Every timed
// rep starts from the same heap: garbage is collected before it, and on
// both sides of the calibration loop that precedes it.
func runWorkload(w *workload, o options) result {
	res := result{Workload: w.name, Seed: o.seed}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	c := &clock{}
	warm, warmOK := res.op(w, o.seed, c, false)

	var nsPerTask, setup, cal []float64
	var bytes, allocs uint64
	fold := fnvOffset
	budget := time.Duration(o.seconds) * time.Second
	t0 := time.Now()
	for r := 0; r < o.reps || time.Since(t0) < budget; r++ {
		seed := o.seed + uint64(r)
		runtime.GC() // so the previous rep's garbage costs the loop nothing
		cal = append(cal, float64(calibrate()))
		runtime.GC()
		out, ok := res.op(w, seed, c, false)
		res.Reps++
		if ok && r == 0 && warmOK && out.digest != warm.digest {
			res.fail(seed, fmt.Errorf("digest %#x differs from the warm-up's %#x on the same seed", out.digest, warm.digest))
			ok = false
		}
		fold.add(out.digest)
		if r == o.reps-1 {
			res.Pin = res.checkPin(w, o, uint64(fold))
		}
		if !ok {
			continue
		}
		res.Tasks += out.tasks
		nsPerTask = append(nsPerTask, float64(c.spans[0].dur)/float64(out.tasks))
		setup = append(setup, float64(c.setupNs())/1e9)
		bytes += c.repBytes
		allocs += c.repAllocs
	}
	if res.Pin == "" {
		res.Pin = fmt.Sprintf("not checked: invariants only (the pin covers %d reps from seed %d)", o.reps, defaultSeed)
	}
	res.Digest = fmt.Sprintf("%#016x", uint64(fold))
	slices.Sort(nsPerTask)
	slices.Sort(setup)
	slices.Sort(cal)
	// Host times are the p10 over reps, the reps that ran while the host
	// was quiet, scaled to the reference host's speed by the calibration
	// loop's p10 over the same run (see calibrate).
	calP10, _ := quantile(cal, 0.1)
	scale := ratio(refCalNs, calP10)
	p10 := percentile("ns_per_task_p10", nsPerTask, 0.1)
	setupS, _ := quantile(setup, 0.1)
	res.EndToEnd = []metric{
		{Name: p10.Name, Value: p10.Value * scale, Unit: p10.Unit, Note: p10.Note},
		{Name: "setup_s", Value: setupS * scale, Unit: "s"},
		{Name: "bytes_per_task", Value: ratio(float64(bytes), float64(res.Tasks)), Unit: "B/task"},
		{Name: "allocs_per_task", Value: ratio(float64(allocs), float64(res.Tasks)), Unit: "allocs/task"},
		{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB"},
	}
	p10.Name += "_measured"
	res.Info = []metric{
		p10,
		percentile("ns_per_task", nsPerTask, 0.5),
		percentile("ns_per_task_p90", nsPerTask, 0.9),
		{Name: "setup_s_measured", Value: setupS, Unit: "s"},
		{Name: "calibration_ms", Value: calP10 / 1e6, Unit: "ms"},
	}
	if o.trace {
		res.traced(w, o, c)
	}
	return res
}

// checkPin compares the fold of the first o.reps reps with the pinned one.
// A mismatch fails every rep the pin covers: the fold cannot say which one
// drifted.
func (r *result) checkPin(w *workload, o options, fold uint64) string {
	if o.seed != defaultSeed || w.pin == 0 {
		return ""
	}
	if fold != w.pin {
		r.OpsFailed += o.reps
		r.Errors = append(r.Errors, fmt.Sprintf("fold digest %#016x of reps 0..%d, pinned %#016x", fold, o.reps-1, w.pin))
		return "MISMATCH"
	}
	return fmt.Sprintf("match (reps 0..%d)", o.reps-1)
}

// traced replays the first seeds, each as an untraced rep followed by a
// traced one, until it has replayed a quarter of the timed reps or spent a
// quarter of o.seconds: the pair gives the tracing overhead, and the traced
// rep must give the same digest as its untraced twin.
func (r *result) traced(w *workload, o options, c *clock) {
	var agg layers
	tid := 1 + slices.IndexFunc(catalog, func(x workload) bool { return x.name == w.name })
	budget := time.Duration(o.seconds) * time.Second / 4
	t0 := time.Now()
	for i := 0; i == 0 || i < r.Reps/4 && time.Since(t0) < budget; i++ {
		seed := o.seed + uint64(i)
		runtime.GC()
		twin, ok := r.op(w, seed, c, false)
		twinNs := float64(c.spans[0].dur)
		runtime.GC()
		out, tok := r.op(w, seed, c, true)
		r.TracedReps++
		if !ok || !tok {
			continue
		}
		if out.digest != twin.digest {
			r.fail(seed, fmt.Errorf("traced digest %#x differs from the untraced %#x", out.digest, twin.digest))
			continue
		}
		c.addPhases()
		agg.add(c, out.tasks, float64(c.spans[0].dur)/twinNs)
		r.Spans = appendEvents(r.Spans, c, w.name, tid, i)
	}
	r.PerLayer = agg.metrics()
}

// quantile returns the sample of rank round(q·(n-1)) and how many samples
// lie beyond it, below it for q < 0.5 and above it otherwise. 100 samples
// put ten beyond p10 and p90.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	k := int(math.Round(q * float64(n-1)))
	return sorted[k], min(k, n-1-k)
}

// percentile is the q-quantile of sorted per-rep ns/task samples, noted
// as unresolved when fewer than ten samples lie beyond it.
func percentile(name string, sorted []float64, q float64) metric {
	v, beyond := quantile(sorted, q)
	m := metric{Name: name, Value: v, Unit: "ns/task"}
	if beyond < 10 {
		m.Note = fmt.Sprintf("unresolved: %d samples beyond it", beyond)
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size, VmHWM. Each workload
// of a full run gets its own process, so this is the workload's own peak.
// (getrusage's ru_maxrss would not do: it keeps the peak of the address
// space the process was exec'd from, which under vfork is the parent's.)
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64)
			return v / 1024
		}
	}
	return 0
}
