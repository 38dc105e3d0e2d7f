package agent

// The agent's ServiceManager: deploys inference-service endpoints
// (internal/service) by running each replica as a long-lived service task
// through the agent's own pipeline — staging, scheduling, backend launch —
// so replicas occupy real slots on real partitions and inherit backend
// failure semantics. It also builds the process bodies of coupled tasks:
// executables that issue requests against deployed endpoints mid-run and
// block on the responses (the dominant hybrid AI-HPC motif in RHAPSODY and
// the AI-coupled-workflow literature).

import (
	"fmt"
	"sort"

	"rpgo/internal/profiler"
	"rpgo/internal/service"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/states"
)

// ServiceManager owns the pilot's deployed inference services.
type ServiceManager struct {
	a         *Agent
	endpoints map[string]*service.Endpoint
	order     []string
}

// Services returns the agent's service manager, creating it on first use.
func (a *Agent) Services() *ServiceManager {
	if a.sm == nil {
		a.sm = &ServiceManager{a: a, endpoints: make(map[string]*service.Endpoint)}
	}
	return a.sm
}

// Deploy validates the description and brings up the service's initial
// replicas on the pilot. The returned endpoint accepts requests as soon as
// its first replica is warm (Endpoint.Ready).
func (sm *ServiceManager) Deploy(sd spec.ServiceDescription) (*service.Endpoint, error) {
	if err := sd.Validate(); err != nil {
		return nil, err
	}
	if _, dup := sm.endpoints[sd.Name]; dup {
		return nil, fmt.Errorf("agent: service %q already deployed", sd.Name)
	}
	if sd.UID == "" {
		sd.UID = "service." + sd.Name
	}
	a := sm.a
	ep := service.NewEndpoint(sd, a.params.Service, a.eng, a.prof,
		a.src.Stream("service."+sd.Name), sm.replicaLauncher(sd))
	sm.endpoints[sd.Name] = ep
	sm.order = append(sm.order, sd.Name)
	return ep, nil
}

// Endpoint returns a deployed endpoint by name, nil if unknown.
func (sm *ServiceManager) Endpoint(name string) *service.Endpoint {
	return sm.endpoints[name]
}

// Endpoints returns all deployed endpoints in deployment order.
func (sm *ServiceManager) Endpoints() []*service.Endpoint {
	out := make([]*service.Endpoint, 0, len(sm.order))
	for _, name := range sm.order {
		out = append(out, sm.endpoints[name])
	}
	return out
}

// CloseAll drains every endpoint (queued requests still serve; replicas
// stop as they idle).
func (sm *ServiceManager) CloseAll() {
	for _, name := range sm.order {
		sm.endpoints[name].Close()
	}
}

// replicaLauncher adapts one replica deployment onto the agent's task
// pipeline: the replica is a Service-flagged function task whose body runs
// until the endpoint stops it.
func (sm *ServiceManager) replicaLauncher(sd spec.ServiceDescription) service.LaunchFunc {
	a := sm.a
	return func(uid string, cb service.ReplicaCallbacks) {
		td := &spec.TaskDescription{
			UID:          uid,
			Kind:         spec.Function,
			Coupling:     spec.DataCoupled,
			CoresPerRank: sd.CoresEach(),
			Ranks:        1,
			GPUsPerRank:  sd.GPUsPerReplica,
			Backend:      sd.Backend,
			Service:      true,
			Workflow:     "service." + sd.Name,
			Stage:        "replica",
		}
		tr := a.prof.Task(uid)
		tr.Submit = a.eng.Now()
		t := &Task{
			TD:    td,
			State: states.TaskTMGRSchedule,
			Trace: tr,
		}
		t.body = func(start sim.Time, done func()) {
			// Weight loading and warmup precede serving; the body then
			// idles until the endpoint calls stop (= done). The warmup
			// timer is generation-guarded: if the replica crashes and is
			// relocated mid-startup, the orphaned attempt must not report
			// a phantom Up alongside the new one.
			gen := t.gen
			a.eng.After(sd.StartupDelay, func() {
				if t.gen != gen {
					return
				}
				cb.Up(done)
			})
		}
		a.Submit(t, func(ft *Task) { cb.Down(ft.Trace.Failed, ft.Reason) })
	}
}

// coupledBody builds the process body for a task that couples to
// inference services: the compute Duration is split at each call's phase;
// at a split the task issues the call's requests concurrently and blocks
// until every response arrives, then resumes computing. Total wall time is
// Duration plus the time spent blocked, which the trace records as
// ServiceWait.
func (a *Agent) coupledBody(t *Task) func(sim.Time, func()) {
	calls := make([]spec.ServiceCall, len(t.TD.Requests))
	copy(calls, t.TD.Requests)
	sort.SliceStable(calls, func(i, j int) bool { return calls[i].Phase < calls[j].Phase })
	// After a mid-run crash the agent re-dispatches the task with a fresh
	// body; the generation check halts this one at its next step so the
	// orphan neither issues phantom requests nor double-counts the trace.
	gen := t.gen
	live := func() bool { return t.gen == gen }
	return func(start sim.Time, done func()) {
		total := t.TD.Duration
		var run func(i int, prev float64)
		run = func(i int, prev float64) {
			if !live() {
				return
			}
			if i == len(calls) {
				a.eng.After(sim.Duration(float64(total)*(1-prev)), done)
				return
			}
			c := calls[i]
			seg := sim.Duration(float64(total) * (c.Phase - prev))
			a.eng.After(seg, func() {
				if !live() {
					return
				}
				blocked := a.eng.Now()
				n := c.NumRequests()
				t.Trace.ServiceRequests += n
				resume := func() {
					if !live() {
						return
					}
					now := a.eng.Now()
					t.Trace.ServiceWait += now.Sub(blocked)
					if now > blocked {
						t.Trace.AddEdge(profiler.CausalEdge{
							Kind: profiler.EdgeService,
							From: blocked,
							To:   now,
							Ref:  c.Service,
						})
					}
					run(i+1, c.Phase)
				}
				// pending counts the unanswered requests plus one held
				// while they are issued, so resume runs once, in an
				// engine event of its own, even if a response arrives
				// synchronously.
				pending := n + 1
				settle := func() {
					pending--
					if pending == 0 {
						a.eng.Immediately(resume)
					}
				}
				for j := 0; j < n; j++ {
					a.callService(t, c.Service, func(at sim.Time, failed bool) {
						if failed && live() {
							t.Trace.ServiceFailed++
						}
						settle()
					})
				}
				settle()
			})
		}
		run(0, 0)
	}
}

// callService routes one request to a deployed endpoint. A missing
// endpoint fails the request immediately (recorded on the task trace)
// rather than failing the task: the HPC side of a coupled computation
// survives a lost inference service.
func (a *Agent) callService(t *Task, name string, done func(at sim.Time, failed bool)) {
	var ep *service.Endpoint
	if a.sm != nil {
		ep = a.sm.Endpoint(name)
	}
	if ep == nil {
		a.eng.Immediately(func() { done(a.eng.Now(), true) })
		return
	}
	ep.Submit(t.TD.UID, done)
}
