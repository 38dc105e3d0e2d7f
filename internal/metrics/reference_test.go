package metrics

import (
	"math"
	"sort"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

// The functions below are the trace-walking series and throughput code the
// key sorts and the stride fold replaced, kept as the reference they must
// match exactly. They build every edge and every point, sort through
// sort.Slice, and downsample a full-length series.

func refComputeThroughput(starts []sim.Time) Throughput {
	if len(starts) == 0 {
		return Throughput{}
	}
	ts := make([]sim.Time, len(starts))
	copy(ts, starts)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })

	var tp Throughput
	tp.Tasks = len(ts)
	tp.Span = ts[len(ts)-1].Sub(ts[0])

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

func refThroughputOf(tasks []*profiler.TaskTrace) Throughput {
	starts := make([]sim.Time, 0, len(tasks))
	for _, t := range tasks {
		if t.Start >= 0 {
			starts = append(starts, t.Start)
		}
	}
	return refComputeThroughput(starts)
}

func refConcurrencySeries(tasks []*profiler.TaskTrace, maxPoints int) Series {
	type edge struct {
		t sim.Time
		d int
	}
	var edges []edge
	for _, tr := range tasks {
		if tr.Start >= 0 && tr.End >= 0 {
			edges = append(edges, edge{tr.Start, +1}, edge{tr.End, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].d < edges[j].d // ends before starts at the same instant
	})
	s := Series{Name: "running"}
	cur := 0
	for _, e := range edges {
		cur += e.d
		s.Points = append(s.Points, Point{T: e.t, V: float64(cur)})
	}
	return refDownsample(s, maxPoints)
}

func refRateSeries(tasks []*profiler.TaskTrace, window sim.Duration, maxPoints int) Series {
	var starts []sim.Time
	for _, tr := range tasks {
		if tr.Start >= 0 {
			starts = append(starts, tr.Start)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	s := Series{Name: "start_rate"}
	if len(starts) == 0 || window <= 0 {
		return s
	}
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
	return refDownsample(s, maxPoints)
}

func refDownsample(s Series, n int) Series {
	if n <= 0 || len(s.Points) <= n {
		return s
	}
	out := Series{Name: s.Name}
	stride := (len(s.Points) + n - 1) / n
	for i := 0; i < len(s.Points); i += stride {
		end := i + stride
		if end > len(s.Points) {
			end = len(s.Points)
		}
		best := s.Points[i]
		for _, p := range s.Points[i+1 : end] {
			if p.V > best.V {
				best = p
			}
		}
		out.Points = append(out.Points, best)
	}
	return out
}
