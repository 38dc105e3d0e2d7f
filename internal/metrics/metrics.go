// Package metrics derives the paper's three core metrics from task traces:
// throughput (task starts per second), resource utilization, and runtime
// overhead — plus the timeline series behind Fig 4 and Fig 8 (running-task
// concurrency and execution start rate).
package metrics

import (
	"fmt"
	"math"
	"slices"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

// Throughput summarizes task start rates for one run.
type Throughput struct {
	// Tasks is the number of started tasks.
	Tasks int
	// Avg is starts per *active* second: total starts divided by the
	// amount of time (at 100 ms resolution) during which at least one
	// task started. This matches the paper's "tasks launched per second,
	// independent of their execution duration": idle gaps between
	// workload waves do not dilute the launcher's rate.
	Avg float64
	// Peak is the maximum number of starts in any sliding 1 s window.
	Peak float64
	// Span is last start − first start.
	Span sim.Duration
}

// ComputeThroughput derives throughput from sorted or unsorted start times.
func ComputeThroughput(starts []sim.Time) Throughput {
	ts := slices.Clone(starts)
	slices.Sort(ts)
	return throughputSorted(ts)
}

// ThroughputOf extracts start times from traces and computes throughput.
func ThroughputOf(tasks []*profiler.TaskTrace) Throughput {
	ts := startTimes(tasks)
	slices.Sort(ts)
	return throughputSorted(ts)
}

// startTimes returns the start times of the tasks that started, in trace
// order.
func startTimes(tasks []*profiler.TaskTrace) []sim.Time {
	starts := make([]sim.Time, 0, len(tasks))
	for _, t := range tasks {
		if t.Start >= 0 {
			starts = append(starts, t.Start)
		}
	}
	return starts
}

// throughputSorted is ComputeThroughput over ascending start times.
func throughputSorted(ts []sim.Time) Throughput {
	if len(ts) == 0 {
		return Throughput{}
	}
	var tp Throughput
	tp.Tasks = len(ts)
	tp.Span = ts[len(ts)-1].Sub(ts[0])

	// Active time at 100 ms buckets.
	const bucket = 100 * sim.Millisecond
	active := 0
	var lastBucket int64 = math.MinInt64
	for _, t := range ts {
		b := int64(t) / int64(bucket)
		if b != lastBucket {
			active++
			lastBucket = b
		}
	}
	tp.Avg = float64(len(ts)) / (float64(active) * bucket.Seconds())

	// Peak over sliding 1 s windows (two-pointer).
	lo := 0
	peak := 0
	for hi := range ts {
		for ts[hi].Sub(ts[lo]) >= sim.Second {
			lo++
		}
		if n := hi - lo + 1; n > peak {
			peak = n
		}
	}
	tp.Peak = float64(peak)
	return tp
}

// Point is one sample of a timeline series.
type Point struct {
	T sim.Time
	V float64
}

// Series is a named timeline.
type Series struct {
	Name   string
	Points []Point
}

// Max returns the maximum value of the series.
func (s *Series) Max() float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Mean returns the plain mean of the sampled values. Samples are not
// weighted by the time between them.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// ConcurrencySeries builds the running-task count over time (the green
// curves of Fig 8), sampled at each change, then downsampled to at most
// maxPoints.
func ConcurrencySeries(tasks []*profiler.TaskTrace, maxPoints int) Series {
	starts, ends := edgeBuffers(len(tasks))
	for _, tr := range tasks {
		if tr.Start >= 0 && tr.End >= 0 {
			starts = append(starts, tr.Start)
			ends = append(ends, tr.End)
		}
	}
	return countSeries("running", starts, ends, maxPoints)
}

// edgeBuffers returns two empty slices of capacity n each, carved from one
// allocation: the up and down instants of a count series.
func edgeBuffers(n int) (ups, downs []sim.Time) {
	buf := make([]sim.Time, 2*n)
	return buf[:0:n], buf[n:n]
}

// countSeries builds a count that steps +1 at each up instant and −1 at each
// down instant, one point per step, downsampled to at most maxPoints. It
// sorts both slices in place and merges them, downs first at equal instants
// (a task that ends as another starts is not counted twice). Equal steps at
// one instant are indistinguishable, so no further tie-break is needed.
// Points fold straight into the downsampled output.
func countSeries(name string, ups, downs []sim.Time, maxPoints int) Series {
	slices.Sort(ups)
	slices.Sort(downs)
	f := newStrideFold(len(ups)+len(downs), maxPoints)
	cur, i, j := 0, 0, 0
	for i < len(ups) || j < len(downs) {
		var t sim.Time
		if j < len(downs) && (i == len(ups) || downs[j] <= ups[i]) {
			t = downs[j]
			j++
			cur--
		} else {
			t = ups[i]
			i++
			cur++
		}
		f.add(Point{T: t, V: float64(cur)})
	}
	return Series{Name: name, Points: f.out}
}

// RateSeries builds the execution start rate over time (the red curves of
// Fig 8) using fixed windows of the given width.
func RateSeries(tasks []*profiler.TaskTrace, window sim.Duration, maxPoints int) Series {
	s := Series{Name: "start_rate"}
	starts := startTimes(tasks)
	if len(starts) == 0 || window <= 0 {
		return s
	}
	slices.Sort(starts)
	w := int64(window)
	cur := int64(starts[0]) / w
	count := 0
	flush := func(bucket int64, n int) {
		s.Points = append(s.Points, Point{
			T: sim.Time(bucket * w),
			V: float64(n) / window.Seconds(),
		})
	}
	for _, t := range starts {
		b := int64(t) / w
		if b != cur {
			flush(cur, count)
			cur = b
			count = 0
		}
		count++
	}
	flush(cur, count)
	return Downsample(s, maxPoints)
}

// Downsample reduces a series to at most n points, keeping the local
// maximum of each stride so peaks survive.
func Downsample(s Series, n int) Series {
	if n <= 0 || len(s.Points) <= n {
		return s
	}
	f := newStrideFold(len(s.Points), n)
	for _, p := range s.Points {
		f.add(p)
	}
	return Series{Name: s.Name, Points: f.out}
}

// strideFold downsamples a stream of points as it arrives. It splits the
// stream into strides of ceil(total/n) consecutive points and keeps the
// first maximum of each, so peaks survive; a short last stride keeps its
// own maximum. With n ≤ 0 or total ≤ n every point is kept.
type strideFold struct {
	out    []Point
	stride int
	k      int // points of the current stride seen so far
}

// newStrideFold sizes a fold for total points and a cap of n. With no
// points, out stays nil, so an empty series has nil Points.
func newStrideFold(total, n int) strideFold {
	if total == 0 {
		return strideFold{stride: 1}
	}
	stride := 1
	if n > 0 && total > n {
		stride = (total + n - 1) / n
	}
	return strideFold{out: make([]Point, 0, (total+stride-1)/stride), stride: stride}
}

// add folds the next point. The current stride's best point so far is the
// last element of out.
func (f *strideFold) add(p Point) {
	if f.k == 0 {
		f.out = append(f.out, p)
	} else if last := &f.out[len(f.out)-1]; p.V > last.V {
		*last = p
	}
	f.k++
	if f.k == f.stride {
		f.k = 0
	}
}

// Utilization is the share of allocated CPU slots used by executing tasks
// over [start, end], computed from traces against a capacity.
func Utilization(tasks []*profiler.TaskTrace, totalCPU int, start, end sim.Time) float64 {
	return utilization(tasks, totalCPU, start, end, func(tr *profiler.TaskTrace) int {
		if tr.Cores == 0 {
			return 1
		}
		return tr.Cores
	})
}

// UtilizationGPU is the GPU-slot counterpart of Utilization.
func UtilizationGPU(tasks []*profiler.TaskTrace, totalGPU int, start, end sim.Time) float64 {
	return utilization(tasks, totalGPU, start, end, func(tr *profiler.TaskTrace) int {
		return tr.GPUs
	})
}

func utilization(tasks []*profiler.TaskTrace, capacity int, start, end sim.Time, slots func(*profiler.TaskTrace) int) float64 {
	if capacity <= 0 || end <= start {
		return 0
	}
	busy := 0.0
	for _, tr := range tasks {
		if !tr.Ran() {
			continue
		}
		s, e := tr.Start, tr.End
		if s < start {
			s = start
		}
		if e > end {
			e = end
		}
		if e > s {
			busy += float64(slots(tr)) * e.Sub(s).Seconds()
		}
	}
	return busy / (float64(capacity) * end.Sub(start).Seconds())
}

// Makespan returns the earliest submit to the latest final time.
func Makespan(tasks []*profiler.TaskTrace) sim.Duration {
	var first, last sim.Time = -1, -1
	for _, tr := range tasks {
		if tr.Submit >= 0 && (first < 0 || tr.Submit < first) {
			first = tr.Submit
		}
		end := tr.Final
		if end < 0 {
			end = tr.End
		}
		if end > last {
			last = end
		}
	}
	if first < 0 || last < first {
		return 0
	}
	return last.Sub(first)
}

// ASCIIPlot renders a series as a fixed-width text chart, the repository's
// stand-in for the paper's figures.
func ASCIIPlot(s Series, width, height int, title string) string {
	if len(s.Points) == 0 {
		return title + "\n(no data)\n"
	}
	minT, maxT := s.Points[0].T, s.Points[len(s.Points)-1].T
	maxV := s.Max()
	if maxV == 0 {
		maxV = 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = make([]byte, width)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	span := float64(maxT - minT)
	if span == 0 {
		span = 1
	}
	for _, p := range s.Points {
		x := int(float64(p.T-minT) / span * float64(width-1))
		y := int(p.V / maxV * float64(height-1))
		row := height - 1 - y
		if row >= 0 && row < height && x >= 0 && x < width {
			grid[row][x] = '*'
		}
	}
	out := title + "\n"
	for i, row := range grid {
		label := "        "
		if i == 0 {
			label = fmt.Sprintf("%7.1f ", maxV)
		} else if i == height-1 {
			label = fmt.Sprintf("%7.1f ", 0.0)
		}
		out += label + "|" + string(row) + "\n"
	}
	out += "        +" + repeat('-', width) + "\n"
	out += fmt.Sprintf("         %-12s%*s\n", fmtTime(minT), width-11, fmtTime(maxT))
	return out
}

func repeat(c byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}

func fmtTime(t sim.Time) string {
	return fmt.Sprintf("%.0fs", t.Seconds())
}
