package metrics

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

// fuzzUnit is the time step of decoded stamps: 255 steps span 7.65 s, so
// a script crosses the 100-ms active buckets and the 1-s peak window
// often, and small byte values collide into equal instants.
const fuzzUnit = 30 * sim.Millisecond

// decodeSeriesScript reads three bytes per record: a, b and flags. The
// record is task i's trace and point i of a series. Start is a; End is a+b, or b when flags&1 (so it can fall
// before Start); flags&2 and flags&4 leave Start and End unset. The point
// is (a, b), so equal values at different times test which maximum a
// stride keeps.
func decodeSeriesScript(script []byte) ([]*profiler.TaskTrace, Series) {
	n := len(script) / 3
	tasks := make([]*profiler.TaskTrace, n)
	s := Series{Name: "fuzz"}
	for i := range n {
		a, b, flags := sim.Time(script[3*i]), sim.Time(script[3*i+1]), script[3*i+2]
		start, end := a, a+b
		if flags&1 != 0 {
			end = b
		}
		start, end = start*sim.Time(fuzzUnit), end*sim.Time(fuzzUnit)
		if flags&2 != 0 {
			start = -1
		}
		if flags&4 != 0 {
			end = -1
		}
		tr := profiler.NewTaskTrace("t")
		tr.Start, tr.End = start, end
		tasks[i] = tr
		s.Points = append(s.Points, Point{T: a * sim.Time(fuzzUnit), V: float64(b)})
	}
	return tasks, s
}

// checkSeriesMatchReference diffs every series and throughput function
// against its reference on one decoded script.
func checkSeriesMatchReference(t *testing.T, maxPoints int, window sim.Duration, tasks []*profiler.TaskTrace, s Series) {
	t.Helper()
	check := func(name string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %+v, reference %+v", name, got, want)
		}
	}
	check("ThroughputOf", ThroughputOf(tasks), refThroughputOf(tasks))
	starts := make([]sim.Time, len(tasks))
	for i, tr := range tasks {
		starts[i] = tr.Start
	}
	kept := slices.Clone(starts)
	check("ComputeThroughput", ComputeThroughput(starts), refComputeThroughput(starts))
	check("ComputeThroughput input", starts, kept)
	check("ConcurrencySeries", ConcurrencySeries(tasks, maxPoints), refConcurrencySeries(tasks, maxPoints))
	check("RateSeries", RateSeries(tasks, window, maxPoints), refRateSeries(tasks, window, maxPoints))
	check("Downsample", Downsample(s, maxPoints), refDownsample(s, maxPoints))
}

// rec encodes one fuzz record.
func rec(a, b, flags byte) []byte { return []byte{a, b, flags} }

func FuzzSeriesMatchReference(f *testing.F) {
	cat := func(recs ...[]byte) []byte { return slices.Concat(recs...) }
	// Window 4 is 120 ms, so rate buckets straddle the 100-ms steps.
	for _, seed := range []struct {
		maxPoints int8
		window    uint8
		script    []byte
	}{
		// A start equal to another task's end: ends go first.
		{0, 4, cat(rec(0, 10, 0), rec(10, 10, 0), rec(20, 5, 0))},
		{3, 4, cat(rec(0, 10, 0), rec(10, 10, 0), rec(20, 5, 0))},
		// Equal starts and equal ends.
		{0, 4, cat(rec(5, 10, 0), rec(5, 10, 0), rec(5, 7, 0), rec(3, 15, 1))},
		// Zero-span tasks sharing one timestamp.
		{0, 4, cat(rec(5, 0, 0), rec(5, 0, 0), rec(5, 0, 0), rec(0, 5, 0))},
		{1, 1, cat(rec(5, 0, 0), rec(5, 0, 0), rec(5, 0, 0), rec(0, 5, 0))},
		// Unset stamps: no start, no end, neither; and an end before its
		// start (only the requests drop it).
		{0, 4, cat(rec(1, 2, 2), rec(3, 4, 4), rec(5, 6, 6), rec(9, 2, 1), rec(7, 7, 0))},
		// maxPoints 0 and 1 on the same run, and a negative cap.
		{0, 10, cat(rec(0, 40, 0), rec(2, 9, 0), rec(7, 3, 0), rec(30, 30, 0))},
		{1, 10, cat(rec(0, 40, 0), rec(2, 9, 0), rec(7, 3, 0), rec(30, 30, 0))},
		{-3, 10, cat(rec(0, 40, 0), rec(2, 9, 0), rec(7, 3, 0), rec(30, 30, 0))},
		// Seven tasks give 14 points: strides of 4 (cap 4) and 3 (cap 5)
		// leave partial tails of 2.
		{4, 2, cat(rec(0, 9, 0), rec(1, 9, 0), rec(2, 9, 0), rec(3, 1, 0), rec(4, 9, 0), rec(5, 2, 0), rec(6, 9, 0))},
		{5, 2, cat(rec(0, 9, 0), rec(1, 9, 0), rec(2, 9, 0), rec(3, 1, 0), rec(4, 9, 0), rec(5, 2, 0), rec(6, 9, 0))},
		// Equal values at different times: a stride keeps the first.
		{2, 4, cat(rec(0, 7, 0), rec(1, 7, 0), rec(2, 3, 0), rec(3, 7, 0), rec(4, 7, 0))},
		// Nothing at all, and a zero window.
		{0, 4, nil},
		{2, 0, cat(rec(1, 1, 0), rec(2, 2, 0))},
	} {
		f.Add(seed.maxPoints, seed.window, seed.script)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 32; i++ {
		script := make([]byte, 3*(1+rng.IntN(80)))
		for j := range script {
			script[j] = byte(rng.UintN(256))
		}
		f.Add(int8(rng.IntN(24)-2), uint8(rng.IntN(40)), script)
	}
	f.Fuzz(func(t *testing.T, maxPoints int8, window uint8, script []byte) {
		tasks, s := decodeSeriesScript(script)
		checkSeriesMatchReference(t, int(maxPoints), sim.Duration(window)*fuzzUnit, tasks, s)
	})
}
