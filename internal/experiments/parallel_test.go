package experiments

import (
	"reflect"
	"sync/atomic"
	"testing"

	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// TestRunCellsCoversAll checks every index runs exactly once under a
// multi-worker pool, with more cells than workers and with fewer.
func TestRunCellsCoversAll(t *testing.T) {
	SetParallelism(4)
	defer SetParallelism(1)
	for _, n := range []int{100, 3} {
		counts := make([]int32, n)
		RunCells(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: cell %d ran %d times", n, i, c)
			}
		}
	}
}

// TestRunCellsSerialWhenOne checks the inline path needs no goroutines;
// rpbench -parallel 0 takes it too.
func TestRunCellsSerialWhenOne(t *testing.T) {
	SetParallelism(0)
	order := []int{}
	RunCells(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial RunCells out of order: %v", order)
		}
	}
}

// TestParallelThroughputIdentical runs the same throughput cell serially
// and on 4 workers and requires deeply equal results — the determinism
// contract behind rpbench -parallel.
func TestParallelThroughputIdentical(t *testing.T) {
	cfg := FluxNCell(8, 2, Null, 12345, 4)
	SetParallelism(1)
	serial := RunThroughput(cfg)
	SetParallelism(4)
	defer SetParallelism(1)
	parallel := RunThroughput(cfg)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel throughput run diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestParallelStagingSweepIdentical does the same for the staging sweep
// (multiple cells × policies).
func TestParallelStagingSweepIdentical(t *testing.T) {
	cfg := StagingSweepConfig{
		Nodes: 2, Shards: 4, TasksPerShard: 6,
		ShardBytes:  []int64{1 << 26, 1 << 27},
		Policies:    []spec.PlacementPolicy{spec.PlacePack, spec.PlaceDataAware},
		TaskSeconds: 1, Seed: 5, Reps: 2,
	}
	SetParallelism(1)
	serial := RunStagingSweep(cfg)
	SetParallelism(4)
	defer SetParallelism(1)
	parallel := RunStagingSweep(cfg)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel staging sweep diverged from serial")
	}
}

// TestParallelServiceSweepIdentical covers the request-rate × replica
// sweep.
func TestParallelServiceSweepIdentical(t *testing.T) {
	cfg := ServiceSweepConfig{
		Nodes: 2, Rates: []float64{10, 30}, Replicas: []int{1, 2},
		Duration: 20 * sim.Second, Seed: 7,
	}
	SetParallelism(1)
	serial := RunServiceSweep(cfg)
	SetParallelism(4)
	defer SetParallelism(1)
	parallel := RunServiceSweep(cfg)
	if !reflect.DeepEqual(serial.Cells, parallel.Cells) {
		t.Fatalf("parallel service sweep diverged from serial")
	}
}
