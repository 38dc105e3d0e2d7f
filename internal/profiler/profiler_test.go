package profiler

import (
	"testing"

	"rpgo/internal/sim"
)

func TestTaskTraceLifecycle(t *testing.T) {
	p := New()
	tr := p.Task("t1")
	if tr.Submit >= 0 || tr.Start >= 0 {
		t.Fatal("fresh trace must have unset timestamps")
	}
	if tr.Ran() {
		t.Fatal("fresh trace did not run")
	}
	tr.Start = sim.Time(sim.Second)
	tr.End = sim.Time(2 * sim.Second)
	if !tr.Ran() {
		t.Fatal("trace with start+end ran")
	}
	// Every Task call opens a trace of its own, even for a UID seen
	// before: keeping UIDs unique is the task manager's job.
	again := p.Task("t1")
	if again == tr || again.Ran() {
		t.Fatal("a second Task call must open a fresh trace")
	}
	if len(p.Tasks()) != 2 {
		t.Fatalf("%d traces retained, want 2", len(p.Tasks()))
	}
}

func TestTasksPreserveSubmissionOrder(t *testing.T) {
	p := New()
	uids := []string{"c", "a", "b"}
	for _, u := range uids {
		p.Task(u)
	}
	for i, tr := range p.Tasks() {
		if tr.UID != uids[i] {
			t.Fatalf("order broken: %v", p.Tasks())
		}
	}
}

// TestEdgeSlotMovesOnce pins the edge storage of retained traces. A trace's
// first edge fills the one slot carved for it. The second moves both into
// a new four-slot slice in one step, which holds the third and fourth in
// place, in the order they came. The trace carved next keeps its own slot.
func TestEdgeSlotMovesOnce(t *testing.T) {
	refs := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9"}
	edge := func(i int) CausalEdge {
		return CausalEdge{Kind: EdgeKind(i % 11), From: sim.Time(i), To: sim.Time(i + 1), Ref: refs[i]}
	}
	p := New()
	tr, next := p.Task("t"), p.Task("next")
	next.AddEdge(edge(9))
	tr.AddEdge(edge(0))
	if len(tr.Edges) != 1 || cap(tr.Edges) != 1 {
		t.Fatalf("after one edge: len %d cap %d, want the carved slot (1, 1)", len(tr.Edges), cap(tr.Edges))
	}
	tr.AddEdge(edge(1))
	if cap(tr.Edges) != 4 {
		t.Fatalf("after two edges: cap %d, want a four-slot slice", cap(tr.Edges))
	}
	moved := &tr.Edges[0]
	tr.AddEdge(edge(2))
	tr.AddEdge(edge(3))
	if &tr.Edges[0] != moved || cap(tr.Edges) != 4 {
		t.Fatal("the third or fourth edge moved the slice again")
	}
	for i, e := range tr.Edges {
		if e != edge(i) {
			t.Fatalf("edge %d = %+v, want %+v", i, e, edge(i))
		}
	}
	if len(next.Edges) != 1 || cap(next.Edges) != 1 || next.Edges[0] != edge(9) {
		t.Fatalf("neighbouring trace's edges = %+v (cap %d), want its own [%+v]", next.Edges, cap(next.Edges), edge(9))
	}
	// Amortized over the trace chunks: no allocation for one edge, one
	// for up to four.
	for _, c := range []struct{ edges, allocs int }{{1, 0}, {4, 1}} {
		got := testing.AllocsPerRun(100, func() {
			tr := p.Task("x")
			for i := 0; i < c.edges; i++ {
				tr.AddEdge(edge(i))
			}
		})
		if got != float64(c.allocs) {
			t.Errorf("a trace with %d edges: %v allocs, want %d", c.edges, got, c.allocs)
		}
	}
}
