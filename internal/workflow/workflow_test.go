package workflow

import (
	"testing"

	"rpgo/internal/core"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/workload"
)

func newSession(t *testing.T, nodes int) (*core.Session, *core.TaskManager) {
	t.Helper()
	sess := core.NewSession(core.Config{Seed: 31})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes:      nodes,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess, sess.TaskManager(pilot)
}

func TestGraphValidation(t *testing.T) {
	g := NewGraph()
	if err := g.Add(&Node{Name: "a", Tasks: workload.Null(1)}); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(&Node{Name: "a", Tasks: workload.Null(1)}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if err := g.Add(&Node{Name: "", Tasks: workload.Null(1)}); err == nil {
		t.Fatal("unnamed node accepted")
	}
	if err := g.Add(&Node{Name: "empty"}); err == nil {
		t.Fatal("empty node accepted")
	}
	if err := g.Add(&Node{Name: "b", Tasks: workload.Null(1), After: []string{"ghost"}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Fatal("dangling dependency not caught")
	}
}

func TestGraphCycleDetection(t *testing.T) {
	g := NewGraph()
	_ = g.Add(&Node{Name: "a", Tasks: workload.Null(1), After: []string{"b"}})
	_ = g.Add(&Node{Name: "b", Tasks: workload.Null(1), After: []string{"a"}})
	if err := g.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
	g2 := NewGraph()
	_ = g2.Add(&Node{Name: "self", Tasks: workload.Null(1), After: []string{"self"}})
	if err := g2.Validate(); err == nil {
		t.Fatal("self-dependency not detected")
	}
}

func TestDiamondExecutionOrder(t *testing.T) {
	sess, tm := newSession(t, 4)
	g := NewGraph()
	mk := func() []*spec.TaskDescription { return workload.Dummy(4, 10*sim.Second) }
	_ = g.Add(&Node{Name: "root", Tasks: mk()})
	_ = g.Add(&Node{Name: "left", Tasks: mk(), After: []string{"root"}})
	_ = g.Add(&Node{Name: "right", Tasks: mk(), After: []string{"root"}})
	_ = g.Add(&Node{Name: "join", Tasks: mk(), After: []string{"left", "right"}})
	run, err := NewRun(g, sess, tm)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	if !run.done {
		t.Fatal("run did not complete")
	}
	root, left, right, join := g.nodes["root"], g.nodes["left"], g.nodes["right"], g.nodes["join"]
	if left.Submitted < root.Completed || right.Submitted < root.Completed {
		t.Fatal("branches started before root completed")
	}
	if join.Submitted < left.Completed || join.Submitted < right.Completed {
		t.Fatal("join started before both branches completed")
	}
	// The two branches overlap (concurrent execution).
	if left.Submitted.Sub(right.Submitted) > sim.Second && right.Submitted.Sub(left.Submitted) > sim.Second {
		t.Fatal("branches did not start together")
	}
	if cp := run.CriticalPath(); cp < 30 {
		t.Fatalf("critical path = %.1fs, want >= 3 x 10s", cp)
	}
}

func TestFanOutFanIn(t *testing.T) {
	sess, tm := newSession(t, 4)
	g := NewGraph()
	_ = g.Add(&Node{Name: "seed", Tasks: workload.Null(1)})
	fan := []string{}
	for i := 0; i < 8; i++ {
		name := "worker" + string(rune('0'+i))
		_ = g.Add(&Node{Name: name, Tasks: workload.Dummy(2, sim.Second), After: []string{"seed"}})
		fan = append(fan, name)
	}
	_ = g.Add(&Node{Name: "reduce", Tasks: workload.Null(1), After: fan})
	run, err := NewRun(g, sess, tm)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	reduce := g.nodes["reduce"]
	for _, name := range fan {
		if reduce.Submitted < g.nodes[name].Completed {
			t.Fatalf("reduce fired before %s completed", name)
		}
	}
}

func TestNoRootNodes(t *testing.T) {
	// Graph where everything depends on something → no roots after
	// validation... construct a legal DAG but depend both ways is a
	// cycle; instead test the empty graph.
	g := NewGraph()
	sess, tm := newSession(t, 4)
	run, err := NewRun(g, sess, tm)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Start(); err == nil {
		t.Fatal("empty graph should have no roots")
	}
}

func TestFailedTasksCounted(t *testing.T) {
	sess, tm := newSession(t, 2)
	g := NewGraph()
	bad := workload.Dummy(2, sim.Second)
	bad[0].Ranks = 999 // validation failure at the agent
	_ = g.Add(&Node{Name: "mixed", Tasks: bad})
	_ = g.Add(&Node{Name: "next", Tasks: workload.Null(1), After: []string{"mixed"}})
	run, err := NewRun(g, sess, tm)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	if g.nodes["mixed"].Failed != 1 {
		t.Fatalf("failed count = %d", g.nodes["mixed"].Failed)
	}
	// The dependent node still fires (failure policy: count and proceed).
	if !run.done {
		t.Fatal("run should complete despite task failures")
	}
}

func TestStageTagging(t *testing.T) {
	sess, tm := newSession(t, 2)
	g := NewGraph()
	tds := workload.Null(2)
	_ = g.Add(&Node{Name: "tagged", Tasks: tds})
	run, _ := NewRun(g, sess, tm)
	_ = run.Start()
	_ = tm.Wait()
	for _, td := range tds {
		if td.Stage != "tagged" {
			t.Fatalf("stage = %q", td.Stage)
		}
	}
}
