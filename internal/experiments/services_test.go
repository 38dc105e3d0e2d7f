package experiments

import (
	"testing"

	"rpgo/internal/sim"
)

func TestServiceSweepQueueingBehaviour(t *testing.T) {
	res := RunServiceSweep(ServiceSweepConfig{
		Nodes:    2,
		Rates:    []float64{10, 60},
		Replicas: []int{1, 4},
		Duration: 30 * sim.Second,
		Seed:     11,
	})
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	get := func(rate float64, reps int) ServiceCell {
		for _, c := range res.Cells {
			if c.Rate == rate && c.Replicas == reps {
				return c
			}
		}
		t.Fatalf("cell %v/%d missing", rate, reps)
		return ServiceCell{}
	}
	for _, c := range res.Cells {
		if c.Served == 0 || c.Failed != 0 {
			t.Fatalf("cell %+v served nothing or failed requests", c)
		}
		if c.Latency.P50 <= 0 || c.Latency.P99 < c.Latency.P50 {
			t.Fatalf("cell %+v has malformed percentiles", c)
		}
	}
	// Queueing theory sanity: at the overloaded rate, adding replicas
	// must cut tail latency; at a fixed replica count, higher rate must
	// not reduce it.
	if hi, lo := get(60, 1), get(60, 4); lo.Latency.P95 >= hi.Latency.P95 {
		t.Fatalf("p95 with 4 replicas (%v) not below 1 replica (%v) at 60 req/s",
			lo.Latency.P95, hi.Latency.P95)
	}
	if quiet, busy := get(10, 1), get(60, 1); busy.Latency.P95 < quiet.Latency.P95 {
		t.Fatalf("p95 fell when load rose: %v -> %v", quiet.Latency.P95, busy.Latency.P95)
	}
	// Under overload batches should fill better than under light load.
	if quiet, busy := get(10, 1), get(60, 1); busy.Occupancy <= quiet.Occupancy {
		t.Fatalf("occupancy %v at 60/s not above %v at 10/s", busy.Occupancy, quiet.Occupancy)
	}
}

func TestAutoscaleDemoScalesWithBurst(t *testing.T) {
	res := RunAutoscaleDemo(2, 10, 5)
	if res.Served == 0 {
		t.Fatal("no requests served")
	}
	if res.PeakReplicas < 2 {
		t.Fatalf("peak replicas = %d, burst should trigger scale-up", res.PeakReplicas)
	}
	ups := 0
	for _, e := range res.Events {
		if e.To > e.From {
			ups++
		}
	}
	if ups == 0 {
		t.Fatalf("no scale-up events: %v", res.Events)
	}
}

// TestServiceSweepDeterministic: the sweep is a pure function of its
// config (the acceptance criterion for reproducible characterization).
func TestServiceSweepDeterministic(t *testing.T) {
	cfg := ServiceSweepConfig{
		Nodes: 2, Rates: []float64{25}, Replicas: []int{2},
		Duration: 20 * sim.Second, Seed: 3,
	}
	a, b := RunServiceSweep(cfg), RunServiceSweep(cfg)
	if len(a.Cells) != len(b.Cells) {
		t.Fatal("cell counts differ")
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Fatalf("cell %d differs:\n%+v\n%+v", i, a.Cells[i], b.Cells[i])
		}
	}
}
