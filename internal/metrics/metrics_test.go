package metrics

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

func times(secs ...float64) []sim.Time {
	out := make([]sim.Time, len(secs))
	for i, s := range secs {
		out[i] = sim.Time(sim.Seconds(s))
	}
	return out
}

func TestThroughputUniformStream(t *testing.T) {
	// 100 starts at exactly 10/s.
	var starts []sim.Time
	for i := 0; i < 100; i++ {
		starts = append(starts, sim.Time(sim.Seconds(float64(i)*0.1)))
	}
	tp := ComputeThroughput(starts)
	if tp.Tasks != 100 {
		t.Fatalf("tasks = %d", tp.Tasks)
	}
	if tp.Avg < 9 || tp.Avg > 11 {
		t.Fatalf("avg = %.2f, want ~10", tp.Avg)
	}
	if tp.Peak < 9 || tp.Peak > 11 {
		t.Fatalf("peak = %.2f, want ~10", tp.Peak)
	}
}

func TestThroughputIgnoresIdleGaps(t *testing.T) {
	// Two bursts of 50 starts at 10/s separated by a 1000 s gap: the
	// active-window average must still be ~10/s, not ~0.1/s.
	var starts []sim.Time
	for i := 0; i < 50; i++ {
		starts = append(starts, sim.Time(sim.Seconds(float64(i)*0.1)))
		starts = append(starts, sim.Time(sim.Seconds(1000+float64(i)*0.1)))
	}
	tp := ComputeThroughput(starts)
	if tp.Avg < 9 || tp.Avg > 11 {
		t.Fatalf("avg = %.2f, want ~10 (gap must not dilute)", tp.Avg)
	}
	if tp.Span < sim.Seconds(1000) {
		t.Fatalf("span = %v", tp.Span)
	}
}

func TestThroughputPeakWindow(t *testing.T) {
	// 50 starts inside one 0.5 s burst → peak (1 s window) = 50.
	var starts []sim.Time
	for i := 0; i < 50; i++ {
		starts = append(starts, sim.Time(sim.Seconds(float64(i)*0.01)))
	}
	// Plus a slow tail.
	for i := 0; i < 10; i++ {
		starts = append(starts, sim.Time(sim.Seconds(10+float64(i))))
	}
	tp := ComputeThroughput(starts)
	if tp.Peak != 50 {
		t.Fatalf("peak = %v, want 50", tp.Peak)
	}
}

func TestThroughputEmpty(t *testing.T) {
	tp := ComputeThroughput(nil)
	if tp.Tasks != 0 || tp.Avg != 0 || tp.Peak != 0 {
		t.Fatalf("empty throughput: %+v", tp)
	}
}

func trace(uid string, start, end float64, cores, gpus int) *profiler.TaskTrace {
	tr := profiler.NewTaskTrace(uid)
	tr.Submit = 0
	tr.Start = sim.Time(sim.Seconds(start))
	tr.End = sim.Time(sim.Seconds(end))
	tr.Final = tr.End
	tr.Cores = cores
	tr.GPUs = gpus
	return tr
}

func TestConcurrencySeries(t *testing.T) {
	tasks := []*profiler.TaskTrace{
		trace("a", 0, 10, 1, 0),
		trace("b", 5, 15, 1, 0),
		trace("c", 10, 20, 1, 0), // c starts exactly when a ends
	}
	s := ConcurrencySeries(tasks, 0)
	if s.Max() != 2 {
		t.Fatalf("max concurrency = %v, want 2", s.Max())
	}
	// Final point must return to zero.
	if last := s.Points[len(s.Points)-1]; last.V != 0 {
		t.Fatalf("concurrency does not end at 0: %+v", last)
	}
}

func TestRateSeries(t *testing.T) {
	var tasks []*profiler.TaskTrace
	for i := 0; i < 30; i++ {
		tasks = append(tasks, trace("x", float64(i)/3, 100, 1, 0)) // 3/s for 10 s
	}
	s := RateSeries(tasks, sim.Second, 0)
	if len(s.Points) == 0 {
		t.Fatal("empty rate series")
	}
	if m := s.Max(); m < 2 || m > 4 {
		t.Fatalf("rate max = %v, want ~3", m)
	}
}

func TestUtilizationExact(t *testing.T) {
	tasks := []*profiler.TaskTrace{
		trace("a", 0, 50, 10, 2),
		trace("b", 50, 100, 30, 0),
	}
	// (10*50 + 30*50) / (100 * 40 cores) = 2000/4000 = 0.5
	if u := Utilization(tasks, 40, 0, sim.Time(sim.Seconds(100))); u != 0.5 {
		t.Fatalf("cpu util = %v, want 0.5", u)
	}
	// GPU: 2*50 / (100*4) = 0.25
	if u := UtilizationGPU(tasks, 4, 0, sim.Time(sim.Seconds(100))); u != 0.25 {
		t.Fatalf("gpu util = %v, want 0.25", u)
	}
}

func TestUtilizationClampsToWindow(t *testing.T) {
	tasks := []*profiler.TaskTrace{trace("a", 0, 100, 10, 0)}
	// Window covers half the run: 10 cores busy over [50,100] of 10
	// total → 100 %.
	u := Utilization(tasks, 10, sim.Time(sim.Seconds(50)), sim.Time(sim.Seconds(100)))
	if u != 1.0 {
		t.Fatalf("windowed util = %v, want 1.0", u)
	}
}

func TestMakespanUsesSubmitAndFinal(t *testing.T) {
	a := trace("a", 10, 20, 1, 0)
	a.Submit = sim.Time(sim.Seconds(5))
	a.Final = sim.Time(sim.Seconds(25))
	if m := Makespan([]*profiler.TaskTrace{a}); m != sim.Seconds(20) {
		t.Fatalf("makespan = %v, want 20s", m)
	}
	// A task with Final unset ends at its End.
	b := trace("b", 3, 50, 1, 0)
	b.Submit = sim.Time(sim.Seconds(2))
	b.Final = -1
	if m := Makespan([]*profiler.TaskTrace{a, b}); m != sim.Seconds(48) {
		t.Fatalf("makespan = %v, want 48s (End stands in for unset Final)", m)
	}
	if m := Makespan(nil); m != 0 {
		t.Fatalf("empty makespan = %v, want 0", m)
	}
}

func TestDownsamplePreservesMax(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var s Series
		for i := 0; i < 500; i++ {
			s.Points = append(s.Points, Point{T: sim.Time(i), V: r.Float64() * 100})
		}
		d := Downsample(s, 50)
		return len(d.Points) <= 50 && d.Max() == s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesMean(t *testing.T) {
	s := Series{Points: []Point{{V: 1}, {V: 2}, {V: 3}}}
	if s.Mean() != 2 {
		t.Fatalf("mean = %v", s.Mean())
	}
	var empty Series
	if empty.Mean() != 0 || empty.Max() != 0 {
		t.Fatal("empty series stats should be 0")
	}
}

func TestASCIIPlot(t *testing.T) {
	s := Series{Name: "x", Points: []Point{
		{T: 0, V: 0}, {T: sim.Time(sim.Second), V: 10}, {T: sim.Time(2 * sim.Second), V: 5},
	}}
	out := ASCIIPlot(s, 40, 8, "test plot")
	if !strings.Contains(out, "test plot") || !strings.Contains(out, "*") {
		t.Fatalf("plot missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 11 { // title + 8 rows + axis + labels
		t.Fatalf("plot has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(ASCIIPlot(Series{}, 10, 4, "empty"), "no data") {
		t.Fatal("empty plot should say no data")
	}
}

func TestRateSeriesGuards(t *testing.T) {
	one := []*profiler.TaskTrace{trace("a", 1, 2, 1, 0)}
	never := profiler.NewTaskTrace("never") // Start = -1: excluded
	cases := []struct {
		name   string
		tasks  []*profiler.TaskTrace
		window sim.Duration
		want   int // expected point count
	}{
		{"nil tasks", nil, sim.Second, 0},
		{"empty tasks", []*profiler.TaskTrace{}, sim.Second, 0},
		{"never started", []*profiler.TaskTrace{never}, sim.Second, 0},
		{"zero window", one, 0, 0},
		{"negative window", one, -sim.Second, 0},
		{"one start", one, sim.Second, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := RateSeries(tc.tasks, tc.window, 0)
			if len(s.Points) != tc.want {
				t.Fatalf("points = %d, want %d (%+v)", len(s.Points), tc.want, s.Points)
			}
			if s.Max() < 0 || s.Mean() < 0 {
				t.Fatalf("negative stats on %q: max=%v mean=%v", tc.name, s.Max(), s.Mean())
			}
		})
	}
}

func TestConcurrencySeriesGuards(t *testing.T) {
	started := profiler.NewTaskTrace("started") // Start set, End = -1
	started.Start = sim.Time(sim.Second)
	cases := []struct {
		name  string
		tasks []*profiler.TaskTrace
		want  int
	}{
		{"nil tasks", nil, 0},
		{"empty tasks", []*profiler.TaskTrace{}, 0},
		{"never ran", []*profiler.TaskTrace{profiler.NewTaskTrace("x")}, 0},
		{"started but unfinished", []*profiler.TaskTrace{started}, 0},
		{"one ran", []*profiler.TaskTrace{trace("a", 0, 1, 1, 0)}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := ConcurrencySeries(tc.tasks, 0)
			if len(s.Points) != tc.want {
				t.Fatalf("points = %d, want %d", len(s.Points), tc.want)
			}
			// Downsampling an empty or tiny series must not panic either.
			if ds := Downsample(s, 1); len(ds.Points) > 1 {
				t.Fatalf("downsample(1) kept %d points", len(ds.Points))
			}
		})
	}
}
