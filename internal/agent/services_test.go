package agent

import (
	"strings"
	"testing"

	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/states"
)

func svcDesc() spec.ServiceDescription {
	return spec.ServiceDescription{
		Name:            "surrogate",
		Replicas:        2,
		CoresPerReplica: 2,
		GPUsPerReplica:  1,
		StartupDelay:    5 * sim.Second,
		BaseLatency:     80 * sim.Millisecond,
		PerItemLatency:  15 * sim.Millisecond,
		BatchWindow:     20 * sim.Millisecond,
		MaxBatch:        8,
	}
}

// hybridRig builds the paper's flux+dragon layout: executables on Flux,
// functions (and service replicas) on Dragon.
func hybridRig(t *testing.T) *rig {
	return newRig(t, spec.PilotDescription{
		Nodes: 4,
		Partitions: []spec.PartitionConfig{
			{Backend: spec.BackendFlux, Instances: 1, NodeShare: 0.5},
			{Backend: spec.BackendDragon, Instances: 1, NodeShare: 0.5},
		},
	})
}

func TestDeployServiceReplicasRunAsServiceTasks(t *testing.T) {
	r := hybridRig(t)
	ep, err := r.agent.Services().Deploy(svcDesc())
	if err != nil {
		t.Fatal(err)
	}
	ready := sim.Time(-1)
	ep.Ready(func() { ready = r.eng.Now() })
	r.eng.Run()
	if ready < 0 {
		t.Fatal("endpoint never became ready")
	}
	if ep.Replicas() != 2 {
		t.Fatalf("replicas = %d, want 2", ep.Replicas())
	}
	// Replica tasks must have routed to the Dragon partition like
	// function tasks and be in RUNNING state.
	running := 0
	for _, tr := range r.prof.Tasks() {
		if !strings.HasPrefix(tr.UID, "svc.surrogate.") {
			continue
		}
		if !strings.HasPrefix(tr.Backend, "dragon") {
			t.Fatalf("replica %s ran on %q, want dragon", tr.UID, tr.Backend)
		}
		if tr.Start < 0 {
			t.Fatalf("replica %s never started", tr.UID)
		}
		running++
	}
	if running != 2 {
		t.Fatalf("replica traces = %d, want 2", running)
	}
	// Readiness = process start + StartupDelay (warmup).
	if ready < sim.Time(5*sim.Second) {
		t.Fatalf("ready at %v, before the 5s startup delay could elapse", ready)
	}
}

func TestCoupledTaskBlocksOnInference(t *testing.T) {
	r := hybridRig(t)
	if _, err := r.agent.Services().Deploy(svcDesc()); err != nil {
		t.Fatal(err)
	}
	tk := r.task(&spec.TaskDescription{
		Kind: spec.Executable, CoresPerRank: 1, Ranks: 1,
		Duration: 60 * sim.Second,
		Requests: []spec.ServiceCall{
			{Service: "surrogate", Count: 4, Phase: 0.5},
			{Service: "surrogate", Count: 2, Phase: 1.0},
		},
	}, "sim.0")
	var final *Task
	r.agent.Submit(tk, func(tt *Task) { final = tt })
	r.eng.Run()
	if final == nil || final.State != states.TaskDone {
		t.Fatalf("coupled task: %+v", final)
	}
	tr := tk.Trace
	if tr.ServiceRequests != 6 || tr.ServiceFailed != 0 {
		t.Fatalf("requests=%d failed=%d, want 6/0", tr.ServiceRequests, tr.ServiceFailed)
	}
	if tr.ServiceWait <= 0 {
		t.Fatal("coupled task should have blocked on responses")
	}
	// Wall time = compute + blocking.
	if span := tr.End.Sub(tr.Start); span < 60*sim.Second+tr.ServiceWait {
		t.Fatalf("span %v < compute 60s + wait %v", span, tr.ServiceWait)
	}
	reqs := r.prof.RequestsFor("surrogate")
	if len(reqs) != 6 {
		t.Fatalf("request traces = %d, want 6", len(reqs))
	}
	for _, rq := range reqs {
		if rq.Task != "sim.0" {
			t.Fatalf("request tagged %q, want sim.0", rq.Task)
		}
	}
}

func TestMissingEndpointFailsRequestsNotTask(t *testing.T) {
	r := hybridRig(t)
	tk := r.task(&spec.TaskDescription{
		Kind: spec.Executable, CoresPerRank: 1, Ranks: 1,
		Duration: 10 * sim.Second,
		Requests: []spec.ServiceCall{{Service: "nonexistent", Count: 3, Phase: 0.5}},
	}, "orphan")
	var final *Task
	r.agent.Submit(tk, func(tt *Task) { final = tt })
	r.eng.Run()
	if final == nil || final.State != states.TaskDone {
		t.Fatalf("task coupled to a missing service must still finish: %+v", final)
	}
	if tk.Trace.ServiceFailed != 3 {
		t.Fatalf("ServiceFailed = %d, want 3", tk.Trace.ServiceFailed)
	}
}

func TestDuplicateDeployRejected(t *testing.T) {
	r := hybridRig(t)
	if _, err := r.agent.Services().Deploy(svcDesc()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.agent.Services().Deploy(svcDesc()); err == nil {
		t.Fatal("duplicate service name must be rejected")
	}
}

func TestDrainClosesEndpoints(t *testing.T) {
	r := hybridRig(t)
	ep, err := r.agent.Services().Deploy(svcDesc())
	if err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(sim.Time(30 * sim.Second))
	if ep.Replicas() != 2 {
		t.Fatalf("replicas = %d before drain", ep.Replicas())
	}
	r.agent.Drain("pilot canceled")
	r.eng.Run()
	if ep.Replicas() != 0 {
		t.Fatalf("replicas = %d after drain, want 0 (slots released)", ep.Replicas())
	}
	// Replica service tasks must have completed cleanly, not failed.
	for _, tr := range r.prof.Tasks() {
		if strings.HasPrefix(tr.UID, "svc.") && tr.Failed {
			t.Fatalf("replica %s failed on drain", tr.UID)
		}
	}
}

// TestServiceTaskStubPathStillWorks covers the pre-subsystem contract:
// a plain Service-flagged task with a fixed Duration still routes,
// starts, and completes.
func TestServiceTaskStubPathStillWorks(t *testing.T) {
	r := newRig(t, spec.PilotDescription{Nodes: 1})
	svc := r.task(&spec.TaskDescription{
		Service: true, CoresPerRank: 1, Ranks: 1, Duration: 50 * sim.Second,
	}, "stub-svc")
	var final *Task
	r.agent.Submit(svc, func(tt *Task) { final = tt })
	r.eng.Run()
	if final == nil || final.State != states.TaskDone {
		t.Fatalf("stub service task: %+v", final)
	}
	if d := svc.Trace.End.Sub(svc.Trace.Start); d != 50*sim.Second {
		t.Fatalf("stub service ran %v, want 50s", d)
	}
}
