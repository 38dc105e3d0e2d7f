package campaign

import (
	"fmt"
	"testing"

	"rpgo/internal/core"
	"rpgo/internal/spec"
	"rpgo/internal/workload"
)

func TestAdaptiveGenerations(t *testing.T) {
	if g := AdaptiveGenerations(256); g != 20 {
		t.Fatalf("generations(256) = %d, want 20", g)
	}
	if g := AdaptiveGenerations(1024); g != 16 {
		t.Fatalf("generations(1024) = %d, want 16", g)
	}
	if AdaptiveGenerations(64) <= AdaptiveGenerations(1024) {
		t.Fatal("smaller allocations must iterate more")
	}
	if AdaptiveGenerations(1<<20) < 4 {
		t.Fatal("generation floor violated")
	}
}

func TestBatchAndIterationScaling(t *testing.T) {
	p := workload.Pipeline{BatchBase: 2, ItersBase: 120, Adaptive: true}
	if BatchSize(p, 256) != 2 || BatchSize(p, 1024) != 8 {
		t.Fatalf("batch scaling: %d / %d", BatchSize(p, 256), BatchSize(p, 1024))
	}
	if BatchSize(p, 16) != 1 {
		t.Fatal("batch floor must be 1")
	}
	if Iterations(p, 256) != 120 {
		t.Fatalf("iters(256) = %d", Iterations(p, 256))
	}
	if Iterations(p, 1024) != 96 { // x 16/20
		t.Fatalf("iters(1024) = %d, want 96", Iterations(p, 1024))
	}
}

func TestPlannedTotalsMatchPaper(t *testing.T) {
	// Paper §4.2: ~550 tasks at 256 nodes, ~1800 at 1024 nodes.
	for _, c := range []struct {
		nodes  int
		lo, hi int
	}{{256, 450, 700}, {1024, 1500, 2200}} {
		sess := core.NewSession(core.Config{Seed: 1})
		pilot, err := sess.SubmitPilot(spec.PilotDescription{Nodes: c.nodes})
		if err != nil {
			t.Fatal(err)
		}
		camp := New(Config{Nodes: c.nodes}, sess, sess.TaskManager(pilot))
		if got := camp.PlannedTotal(); got < c.lo || got > c.hi {
			t.Errorf("planned total at %d nodes = %d, want in [%d, %d]", c.nodes, got, c.lo, c.hi)
		}
	}
}

func TestLowerBoundEnforced(t *testing.T) {
	sess := core.NewSession(core.Config{Seed: 1})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{Nodes: 256})
	if err != nil {
		t.Fatal(err)
	}
	// A campaign planned far below 102 tasks per 128 nodes must refuse
	// to start.
	tiny := []workload.Pipeline{{
		Template:  workload.ImpeccablePipelines()[0].Template,
		BatchBase: 1, ItersBase: 1,
	}}
	camp := New(Config{Nodes: 256, Pipelines: tiny}, sess, sess.TaskManager(pilot))
	if err := camp.Start(); err == nil {
		t.Fatal("campaign below the 102-per-128-nodes bound must not start")
	}
}

func TestCampaignRunsToCompletion(t *testing.T) {
	sess := core.NewSession(core.Config{Seed: 5})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes:      32,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tm := sess.TaskManager(pilot)
	camp := New(Config{Nodes: 32, MaxIters: 5, MaxRetries: 1}, sess, tm)
	if err := camp.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	if !camp.Done() {
		t.Fatal("campaign did not complete")
	}
	if camp.TotalFailed() != 0 {
		t.Fatalf("%d campaign tasks failed", camp.TotalFailed())
	}
	// Each pipeline ran exactly MaxIters iterations.
	perWF := map[string]int{}
	for _, rec := range camp.Records() {
		perWF[rec.Workflow]++
		if rec.Completed < rec.Submitted {
			t.Fatalf("record %s/%d: completed %v before submitted %v",
				rec.Workflow, rec.Iteration, rec.Completed, rec.Submitted)
		}
		// Every iteration carries at least one 180 s task.
		if span := rec.Completed.Sub(rec.Submitted); span < workload.ImpeccableTaskDuration {
			t.Fatalf("record %s/%d: span %v shorter than the task duration",
				rec.Workflow, rec.Iteration, span)
		}
	}
	if len(perWF) != 6 {
		t.Fatalf("pipelines seen: %v", perWF)
	}
	for wf, n := range perWF {
		if n != 5 {
			t.Fatalf("%s ran %d iterations, want 5", wf, n)
		}
	}
}

func TestIterationBarrier(t *testing.T) {
	// Within one pipeline, iteration i+1 must submit only after i
	// completed.
	sess := core.NewSession(core.Config{Seed: 6})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes:      32,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tm := sess.TaskManager(pilot)
	camp := New(Config{Nodes: 32, MaxIters: 4}, sess, tm)
	if err := camp.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	last := map[string]*IterationRecord{}
	for _, rec := range camp.Records() {
		if prev := last[rec.Workflow]; prev != nil {
			if rec.Iteration != prev.Iteration+1 {
				t.Fatalf("%s: iteration order broken (%d after %d)", rec.Workflow, rec.Iteration, prev.Iteration)
			}
			if rec.Submitted < prev.Completed {
				t.Fatalf("%s: iteration %d submitted before %d completed", rec.Workflow, rec.Iteration, prev.Iteration)
			}
		}
		last[rec.Workflow] = rec
	}
}

func TestFootprintClampToSmallPilot(t *testing.T) {
	// ESMACS tasks request 24 nodes; on an 8-node pilot they must be
	// clamped and still run.
	sess := core.NewSession(core.Config{Seed: 7})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes:      8,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tm := sess.TaskManager(pilot)
	camp := New(Config{Nodes: 8, MaxIters: 2}, sess, tm)
	if err := camp.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	if camp.TotalFailed() != 0 {
		t.Fatalf("%d tasks failed on the small pilot", camp.TotalFailed())
	}
}

func TestAdaptiveJitterBounded(t *testing.T) {
	sess := core.NewSession(core.Config{Seed: 8})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes:      32,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tm := sess.TaskManager(pilot)
	camp := New(Config{Nodes: 32, MaxIters: 10}, sess, tm)
	if err := camp.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range camp.Records() {
		if rec.Tasks < 1 {
			t.Fatalf("iteration with %d tasks", rec.Tasks)
		}
		// Jitter cap: at most 4x the scaled base.
		base := 0
		for _, p := range workload.ImpeccablePipelines() {
			if p.Template.Workflow == rec.Workflow {
				base = BatchSize(p, 32)
			}
		}
		if rec.Tasks > 4*base {
			t.Fatalf("%s iteration of %d tasks exceeds 4x base %d", rec.Workflow, rec.Tasks, base)
		}
	}
}

func TestDoubleStartErrors(t *testing.T) {
	sess := core.NewSession(core.Config{Seed: 9})
	pilot, _ := sess.SubmitPilot(spec.PilotDescription{Nodes: 32})
	camp := New(Config{Nodes: 32, MaxIters: 1}, sess, sess.TaskManager(pilot))
	if err := camp.Start(); err != nil {
		t.Fatal(err)
	}
	if err := camp.Start(); err == nil {
		t.Fatal("second Start must error")
	}
}

// TestIterationAllocsFlat pins that one campaign iteration's allocations
// do not grow with its batch size: its descriptions are copies of the
// template in one array, and TaskManager.Submit takes a batch in a fixed
// number of allocations too. Each size first runs as many iterations as it
// then measures, so the session's growing slices and trace chunks add less
// than one allocation per measured iteration.
func TestIterationAllocsFlat(t *testing.T) {
	const runs = 100
	allocs := func(batch int) float64 {
		sess := core.NewSession(core.Config{Seed: 1})
		pilot, err := sess.SubmitPilot(spec.PilotDescription{Nodes: 256})
		if err != nil {
			t.Fatal(err)
		}
		pipe := workload.ImpeccablePipelines()[0]
		pipe.BatchBase, pipe.Adaptive = float64(batch), false // at 256 nodes, the batch is BatchBase
		c := New(Config{Nodes: 256, Pipelines: []workload.Pipeline{pipe}}, sess, sess.TaskManager(pilot))
		st := c.pipes[0]
		for i := 0; i < runs; i++ {
			c.submitIteration(st)
		}
		return testing.AllocsPerRun(runs, func() { c.submitIteration(st) })
	}
	if one, many := allocs(1), allocs(32); many != one {
		t.Errorf("an iteration of 32 tasks makes %v allocations, one of 1 task %v", many, one)
	}
}

// TestStageLabelMatchesSprintf pins stageLabel to the bytes of the
// fmt.Sprintf it replaced, across the zero padding and past it.
func TestStageLabelMatchesSprintf(t *testing.T) {
	for _, iter := range []int{0, 7, 42, 999, 1000, 12345} {
		for _, stage := range []string{"dock", "ensemble", ""} {
			if got, want := stageLabel(iter, stage), fmt.Sprintf("i%03d.%s", iter, stage); got != want {
				t.Errorf("stageLabel(%d, %q) = %q, want %q", iter, stage, got, want)
			}
		}
	}
}
