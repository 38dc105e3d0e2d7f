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
	if p.NumTasks() != 2 || len(p.Tasks()) != 2 {
		t.Fatalf("NumTasks = %d, %d retained, want 2", p.NumTasks(), len(p.Tasks()))
	}
}

func TestEventLogDisabledByDefault(t *testing.T) {
	p := New()
	p.Log(0, "x", "state", "NEW")
	if len(p.Events()) != 0 {
		t.Fatal("events recorded while disabled")
	}
	p.RecordEvents = true
	p.Log(sim.Time(sim.Second), "x", "state", "DONE")
	p.Log(sim.Time(2*sim.Second), "y", "state", "DONE")
	if len(p.Events()) != 2 {
		t.Fatalf("got %d events", len(p.Events()))
	}
	ex := p.EventsFor("x")
	if len(ex) != 1 || ex[0].Info != "DONE" {
		t.Fatalf("EventsFor(x) = %+v", ex)
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
