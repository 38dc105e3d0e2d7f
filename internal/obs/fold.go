package obs

// The Fold sink: incremental trace analytics in O(1) memory per record.
// Where the Memory sink retains every TaskTrace so internal/metrics can
// post-process them, Fold computes the same summary statistics on the fly:
//
//   - Throughput.Avg replicates metrics.ComputeThroughput exactly — starts
//     per active 100 ms bucket — by folding start times into a bucket set
//     (memory bounded by makespan, not task count). Throughput.Peak does
//     not: it is the best fixed 1 s bucket, a lower bound of the paper's
//     sliding-window peak, which needs every start time to compute.
//   - Utilization replicates metrics.Utilization over the execution window
//     [first start, last end], exactly: busy core-seconds accumulate per
//     task and no clamping can occur inside the window.
//   - Latency percentiles (task durations, request latency, queue wait)
//     come from log-bucketed histograms, within ~1% of the exact
//     sorted-sample values.
//
// Fold reports RetainTraces()=false, switching the profiler to streaming
// mode: per-task memory is freed at finalization and campaigns run with
// constant trace memory (see BenchmarkMillionTaskFoldSink).

import (
	"rpgo/internal/metrics"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

// Fold is a streaming TraceSink computing summary metrics incrementally.
type Fold struct {
	// Task aggregates.
	tasks   int
	failed  int
	ran     int
	started int
	retries int

	firstSubmit sim.Time
	lastFinal   sim.Time
	firstStart  sim.Time // over started tasks (throughput span)
	lastStart   sim.Time
	execStart   sim.Time // over ran tasks (utilization window)
	execEnd     sim.Time

	busyCPU float64 // core-seconds of ran tasks
	busyGPU float64

	// startBuckets are the 100 ms buckets with ≥1 start (the exact
	// denominator of metrics.ComputeThroughput's Avg); startSeconds
	// counts starts per 1 s bucket for the Peak approximation.
	startBuckets map[int64]struct{}
	startSeconds map[int64]int

	durHist Hist // exec durations (s) of ran tasks

	bytesIn, bytesOut    int64
	dataHits, dataMisses int

	// Transfer aggregates.
	transfers     int
	transferBytes int64
	xferHist      Hist // transfer durations (s)

	// Request aggregates.
	requests   int
	reqFailed  int
	latHist    Hist // client-observed latency (s)
	waitHist   Hist // queue wait (s)
	batchSum   uint64
	batchCount uint64
}

// NewFold returns an empty fold sink.
func NewFold() *Fold {
	return &Fold{
		firstSubmit:  -1,
		lastFinal:    -1,
		firstStart:   -1,
		lastStart:    -1,
		execStart:    -1,
		execEnd:      -1,
		startBuckets: make(map[int64]struct{}),
		startSeconds: make(map[int64]int),
	}
}

// RetainTraces switches the profiler to streaming mode.
func (*Fold) RetainTraces() bool { return false }

// Flush implements TraceSink (nothing buffered).
func (*Fold) Flush() error { return nil }

// OnTask folds one terminal task record.
func (f *Fold) OnTask(t *profiler.TaskTrace) {
	f.tasks++
	if t.Failed {
		f.failed++
	}
	f.retries += t.Retries
	if t.Submit >= 0 && (f.firstSubmit < 0 || t.Submit < f.firstSubmit) {
		f.firstSubmit = t.Submit
	}
	end := t.Final
	if end < 0 {
		end = t.End
	}
	if end > f.lastFinal {
		f.lastFinal = end
	}
	if t.Start >= 0 {
		f.started++
		if f.firstStart < 0 || t.Start < f.firstStart {
			f.firstStart = t.Start
		}
		if t.Start > f.lastStart {
			f.lastStart = t.Start
		}
		const bucket = 100 * sim.Millisecond
		f.startBuckets[int64(t.Start)/int64(bucket)] = struct{}{}
		f.startSeconds[int64(t.Start)/int64(sim.Second)]++
	}
	if t.Ran() {
		f.ran++
		if f.execStart < 0 || t.Start < f.execStart {
			f.execStart = t.Start
		}
		if t.End > f.execEnd {
			f.execEnd = t.End
		}
		secs := t.End.Sub(t.Start).Seconds()
		cores := t.Cores
		if cores == 0 {
			cores = 1
		}
		f.busyCPU += float64(cores) * secs
		f.busyGPU += float64(t.GPUs) * secs
		f.durHist.Observe(secs)
	}
	f.bytesIn += t.BytesIn
	f.bytesOut += t.BytesOut
	f.dataHits += t.DataHits
	f.dataMisses += t.DataMisses
}

// OnTransfer folds one completed data transfer.
func (f *Fold) OnTransfer(tt profiler.TransferTrace) {
	f.transfers++
	f.transferBytes += tt.Bytes
	f.xferHist.Observe(tt.Duration().Seconds())
}

// OnRequest folds one answered inference request.
func (f *Fold) OnRequest(rt profiler.RequestTrace) {
	f.requests++
	if rt.Failed {
		f.reqFailed++
	}
	f.latHist.Observe(rt.Latency().Seconds())
	f.waitHist.Observe(rt.QueueWait().Seconds())
	if rt.Batch > 0 {
		f.batchSum += uint64(rt.Batch)
		f.batchCount++
	}
}

// Tasks, Failed, Started and Ran report task counts.
func (f *Fold) Tasks() int { return f.tasks }

// Failed returns the count of tasks whose terminal state was FAILED.
func (f *Fold) Failed() int { return f.failed }

// Started returns the count of tasks that began executing.
func (f *Fold) Started() int { return f.started }

// Ran returns the count of tasks with both start and end timestamps.
func (f *Fold) Ran() int { return f.ran }

// Retries returns total executor-level resubmissions.
func (f *Fold) Retries() int { return f.retries }

// Throughput matches metrics.ThroughputOf on the same run: Tasks, Avg and
// Span are exact; Peak is the best fixed 1 s bucket, a lower bound of the
// sliding-window peak (the sliding maximum cannot be folded in O(1)). Only
// `rptrace stats` prints it; every reported Peak is the sliding one.
func (f *Fold) Throughput() metrics.Throughput {
	if f.started == 0 {
		return metrics.Throughput{}
	}
	tp := metrics.Throughput{
		Tasks: f.started,
		Span:  f.lastStart.Sub(f.firstStart),
	}
	const bucket = 100 * sim.Millisecond
	tp.Avg = float64(f.started) / (float64(len(f.startBuckets)) * bucket.Seconds())
	for _, n := range f.startSeconds {
		if float64(n) > tp.Peak {
			tp.Peak = float64(n)
		}
	}
	return tp
}

// ExecWindow returns [first start, last end] over ran tasks — the window
// experiments.execWindow derives from retained traces.
func (f *Fold) ExecWindow() (sim.Time, sim.Time) {
	if f.execStart < 0 {
		return 0, 0
	}
	return f.execStart, f.execEnd
}

// Utilization matches metrics.Utilization(tasks, totalCPU, ExecWindow()):
// busy core-seconds over capacity across the execution window.
func (f *Fold) Utilization(totalCPU int) float64 {
	start, end := f.ExecWindow()
	if totalCPU <= 0 || end <= start {
		return 0
	}
	return f.busyCPU / (float64(totalCPU) * end.Sub(start).Seconds())
}

// UtilizationGPU is the GPU counterpart of Utilization.
func (f *Fold) UtilizationGPU(totalGPU int) float64 {
	start, end := f.ExecWindow()
	if totalGPU <= 0 || end <= start {
		return 0
	}
	return f.busyGPU / (float64(totalGPU) * end.Sub(start).Seconds())
}

// Makespan matches metrics.Makespan: earliest submit to latest terminal
// event.
func (f *Fold) Makespan() sim.Duration {
	if f.firstSubmit < 0 || f.lastFinal < f.firstSubmit {
		return 0
	}
	return f.lastFinal.Sub(f.firstSubmit)
}

// DurationQuantile returns the q-quantile of task execution durations in
// seconds, within the histogram's ~1% resolution.
func (f *Fold) DurationQuantile(q float64) float64 { return f.durHist.Quantile(q) }

// MeanDuration returns the exact mean task execution duration in seconds.
func (f *Fold) MeanDuration() float64 { return f.durHist.Mean() }

// Transfers and TransferBytes report data-subsystem aggregates.
func (f *Fold) Transfers() int { return f.transfers }

// TransferBytes returns total bytes across folded transfers.
func (f *Fold) TransferBytes() int64 { return f.transferBytes }

// TransferQuantile returns the q-quantile transfer duration in seconds.
func (f *Fold) TransferQuantile(q float64) float64 { return f.xferHist.Quantile(q) }

// BytesStaged returns the per-task staging byte totals (in, out).
func (f *Fold) BytesStaged() (in, out int64) { return f.bytesIn, f.bytesOut }

// DataLocality returns the locality hit/miss totals.
func (f *Fold) DataLocality() (hits, misses int) { return f.dataHits, f.dataMisses }

// Requests and RequestsFailed report inference-request counts.
func (f *Fold) Requests() int { return f.requests }

// RequestsFailed returns the count of errored requests.
func (f *Fold) RequestsFailed() int { return f.reqFailed }

// LatencyQuantile returns the q-quantile client-observed request latency
// in seconds.
func (f *Fold) LatencyQuantile(q float64) float64 { return f.latHist.Quantile(q) }

// QueueWaitQuantile returns the q-quantile request queue wait in seconds.
func (f *Fold) QueueWaitQuantile(q float64) float64 { return f.waitHist.Quantile(q) }

// MeanBatch returns the request-weighted mean batch size.
func (f *Fold) MeanBatch() float64 {
	if f.batchCount == 0 {
		return 0
	}
	return float64(f.batchSum) / float64(f.batchCount)
}
