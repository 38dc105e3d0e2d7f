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
	// WaitServices (the old stub's contract) must gate on replica starts.
	waited := sim.Time(-1)
	r.agent.WaitServices(func() { waited = r.eng.Now() })
	r.eng.Run()
	if ready < 0 {
		t.Fatal("endpoint never became ready")
	}
	if waited < 0 {
		t.Fatal("WaitServices never fired for deployed replicas")
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

// TestWaitServicesIgnoresRetriedStart: a service task that crashes and
// restarts must not decrement the pending counter twice — WaitServices
// has to hold until the genuinely-unstarted service is up (regression
// test for the per-task started flag).
func TestWaitServicesIgnoresRetriedStart(t *testing.T) {
	r := newRig(t, spec.PilotDescription{
		Nodes: 4,
		Partitions: []spec.PartitionConfig{
			// Dragon boots in ~9s, flux in ~20s: service A starts,
			// crashes and restarts on Dragon long before service B can
			// start on Flux.
			{Backend: spec.BackendDragon, Instances: 2, NodeShare: 0.5},
			{Backend: spec.BackendFlux, Instances: 1, NodeShare: 0.5},
		},
	})
	a := r.task(&spec.TaskDescription{
		Service: true, Kind: spec.Function, CoresPerRank: 1, Ranks: 1,
		Backend: spec.BackendDragon, Duration: 500 * sim.Second, MaxRetries: 2,
	}, "svc-a")
	b := r.task(&spec.TaskDescription{
		Service: true, CoresPerRank: 1, Ranks: 1,
		Backend: spec.BackendFlux, Duration: 500 * sim.Second,
	}, "svc-b")
	r.agent.Submit(a, func(*Task) {})
	r.agent.Submit(b, func(*Task) {})
	fired := sim.Time(-1)
	r.agent.WaitServices(func() { fired = r.eng.Now() })

	// Crash A's instance just after it starts; A retries on the second
	// Dragon runtime and reports a second start.
	r.eng.RunUntil(sim.Time(12 * sim.Second))
	if a.Trace.Start < 0 {
		t.Fatal("test setup: service A not started by 12s")
	}
	for _, l := range r.agent.Launchers() {
		if l.Name() == a.Trace.Backend {
			l.Crash("injected")
		}
	}
	r.eng.Run()
	if fired < 0 {
		t.Fatal("WaitServices never fired")
	}
	if b.Trace.Start < 0 {
		t.Fatal("service B never started")
	}
	if fired < b.Trace.Start {
		t.Fatalf("WaitServices fired at %v, before service B started at %v "+
			"(retried A's second start was double-counted)", fired, b.Trace.Start)
	}
}

// TestWaitServicesResolvesNeverStartedService: a service task that fails
// before its first start (absent backend) must still resolve the pending
// counter, or WaitServices hangs for the session (regression test).
func TestWaitServicesResolvesNeverStartedService(t *testing.T) {
	r := newRig(t, spec.PilotDescription{
		Nodes:      2,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
	})
	dead := r.task(&spec.TaskDescription{
		Service: true, CoresPerRank: 1, Ranks: 1,
		Backend: spec.BackendSrun, // not in this pilot: fails pre-start
	}, "svc-dead")
	live := r.task(&spec.TaskDescription{
		Service: true, CoresPerRank: 1, Ranks: 1, Duration: 10 * sim.Second,
	}, "svc-live")
	var deadFinal *Task
	r.agent.Submit(dead, func(tt *Task) { deadFinal = tt })
	r.agent.Submit(live, func(*Task) {})
	fired := false
	r.agent.WaitServices(func() { fired = true })
	r.eng.Run()
	if deadFinal == nil || deadFinal.State != states.TaskFailed {
		t.Fatalf("service on absent backend: %+v", deadFinal)
	}
	if !fired {
		t.Fatal("WaitServices hung on a service that failed before starting")
	}
}

// TestWaitServicesSurvivesValidationFailedService: a service task that
// fails validation (never registered in the pending counter) must not
// unbalance the accounting — WaitServices still fires exactly when the
// valid services resolve (regression test).
func TestWaitServicesSurvivesValidationFailedService(t *testing.T) {
	r := newRig(t, spec.PilotDescription{Nodes: 1})
	invalid := r.task(&spec.TaskDescription{
		Service: true, CoresPerRank: 1, Ranks: 1, GPUsPerRank: 99,
	}, "svc-invalid")
	valid := r.task(&spec.TaskDescription{
		Service: true, CoresPerRank: 1, Ranks: 1, Duration: 10 * sim.Second,
	}, "svc-valid")
	r.agent.Submit(invalid, func(*Task) {})
	r.agent.Submit(valid, func(*Task) {})
	fired := sim.Time(-1)
	r.agent.WaitServices(func() { fired = r.eng.Now() })
	r.eng.Run()
	if fired < 0 {
		t.Fatal("WaitServices never fired (counter went negative)")
	}
	if valid.Trace.Start < 0 || fired < valid.Trace.Start {
		t.Fatalf("fired at %v vs valid service start %v", fired, valid.Trace.Start)
	}
}

// TestServiceTaskStubPathStillWorks covers the pre-subsystem contract:
// a plain Service-flagged task with a fixed Duration still routes,
// starts (unblocking WaitServices via noteServiceStart), and completes.
func TestServiceTaskStubPathStillWorks(t *testing.T) {
	r := newRig(t, spec.PilotDescription{Nodes: 1})
	svc := r.task(&spec.TaskDescription{
		Service: true, CoresPerRank: 1, Ranks: 1, Duration: 50 * sim.Second,
	}, "stub-svc")
	var final *Task
	r.agent.Submit(svc, func(tt *Task) { final = tt })
	fired := false
	r.agent.WaitServices(func() { fired = true })
	r.eng.Run()
	if !fired {
		t.Fatal("WaitServices did not fire")
	}
	if final == nil || final.State != states.TaskDone {
		t.Fatalf("stub service task: %+v", final)
	}
	if d := svc.Trace.End.Sub(svc.Trace.Start); d != 50*sim.Second {
		t.Fatalf("stub service ran %v, want 50s", d)
	}
}
