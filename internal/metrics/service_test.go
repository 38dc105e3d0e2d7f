package metrics

import (
	"math"
	"testing"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(xs, 0.5); math.Abs(p-5.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 5.5", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 1); p != 10 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty = %v", p)
	}
}

func TestSummarizeLatencies(t *testing.T) {
	var ds []sim.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, sim.Duration(i)*sim.Millisecond)
	}
	s := SummarizeLatencies(ds)
	if s.N != 100 {
		t.Fatalf("n = %d", s.N)
	}
	if math.Abs(s.Mean-0.0505) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.P50 >= s.P95 || s.P95 >= s.P99 || s.P99 > s.Max {
		t.Fatalf("percentile ordering: %+v", s)
	}
	if s.Max != 0.1 {
		t.Fatalf("max = %v", s.Max)
	}
	if SummarizeLatencies(nil).N != 0 {
		t.Fatal("empty summary")
	}
	if s.String() == "" {
		t.Fatal("stringer")
	}
}

func mkReq(issued, disp, done sim.Time, batch int, failed bool) profiler.RequestTrace {
	return profiler.RequestTrace{
		UID: "r", Service: "s",
		Issued: issued, Dispatched: disp, Done: done,
		Batch: batch, Failed: failed,
	}
}

func TestRequestDerivedMetrics(t *testing.T) {
	reqs := []profiler.RequestTrace{
		mkReq(0, 100, 200, 4, false),
		mkReq(50, 100, 200, 4, false),
		mkReq(0, 0, 10, 0, true), // failed: excluded everywhere
		mkReq(100, 300, 500, 2, false),
	}
	lats := RequestLatencies(reqs)
	if len(lats) != 3 || lats[0] != 200 || lats[2] != 400 {
		t.Fatalf("latencies: %v", lats)
	}
	waits := QueueWaits(reqs)
	if len(waits) != 3 || waits[1] != 50 {
		t.Fatalf("waits: %v", waits)
	}
	// Occupancy: request-weighted mean batch (4+4+2)/3 over cap 4.
	if occ := BatchOccupancy(reqs, 4); math.Abs(occ-(10.0/3/4)) > 1e-9 {
		t.Fatalf("occupancy = %v", occ)
	}
}
