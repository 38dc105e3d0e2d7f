// Package fault implements the seeded, deterministic failure model the
// robustness experiments inject into a pilot (paper §3.2: "RP triggers
// failover and moves affected tasks to error states"; the recovery
// machinery is RP's retry/relocation path).
//
// Three failure classes, all drawn from dedicated named RNG streams of the
// pilot's domain source so a fixed seed replays bit-identically and adding
// the injector to a session never perturbs any other stream:
//
//   - node failures: each node draws an exponential inter-failure sequence
//     with mean NodeMTBF. A failing node loses its capacity (the cluster
//     epoch bumps, invalidating placer watermarks), every task running on
//     it is evicted back into the agent's retry/relocation path, and its
//     node-local replicas are dropped. After NodeDowntime the node returns
//     and the backends are kicked so queued work can use it (pilot
//     elasticity: shrink on loss, grow on backfill). A zero NodeDowntime
//     makes failures permanent — the pilot shrinks for good, and ends
//     FAILED when its last node is gone.
//
//   - backend crashes: the pilot draws an exponential crash sequence with
//     mean BackendMTBF; each crash picks a backend instance (uniform draw,
//     resolved against the live instance list at fire time) and kills it —
//     queued and running tasks fail back to the agent — then restarts it
//     after BackendDowntime, paying bootstrap again.
//
//   - stragglers: each node draws once against StragglerFrac; slow nodes
//     stretch the execution time of any plain compute body placed on them
//     by StragglerFactor.
//
// The entire schedule is pre-drawn at construction, bounded by the horizon:
// the injector contributes a finite event stream, so the engine still runs
// to quiescence, replay is trivially deterministic, and the schedule is
// independent of anything the workload does.
package fault

import (
	"fmt"
	"sort"

	"rpgo/internal/agent"
	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
)

// Stats counts what the injector did (deterministic for a fixed seed).
type Stats struct {
	NodeFailures    int
	NodeRestores    int
	BackendCrashes  int
	BackendRestarts int
	// Victims counts tasks evicted by node failures (backend crashes kill
	// through the backend's own drain path and are not counted here).
	Victims int
	// StragglerNodes is how many nodes drew a slow factor.
	StragglerNodes int
}

// event is one pre-drawn schedule entry.
type event struct {
	at   sim.Time
	kind int // evFail, evRestore, evCrash, evRestart
	node int // node ID for evFail/evRestore; pair index for evCrash/evRestart
	pick float64
}

const (
	evFail = iota
	evRestore
	evCrash
	evRestart
)

// Injector drives one pilot's failure schedule.
type Injector struct {
	cluster *platform.Cluster
	ag      *agent.Agent
	p       model.FaultParams
	// fail ends the pilot FAILED and drains its agent, on total loss.
	fail func(reason string)

	slow  []float64 // per-node straggler factor (0 = nominal)
	stats Stats
	// crashTarget[i] is the instance index crash event i picked at fire
	// time, so its paired restart hits the same instance (-1 = none).
	crashTarget []int
}

// New builds the injector and pre-draws the whole failure schedule. It is
// constructed only when params.Enabled(); a session without faults never
// creates the streams, so its RNG state is untouched. fail ends the pilot
// when its last node fails for good.
func New(eng *sim.Engine, cluster *platform.Cluster, ag *agent.Agent,
	src *rng.Source, params model.FaultParams, fail func(reason string)) *Injector {

	inj := &Injector{
		cluster: cluster,
		ag:      ag,
		p:       params,
		fail:    fail,
	}
	horizon := sim.Seconds(params.HorizonOrDefault())
	t0 := eng.Now()
	var sched []event

	// Stragglers: one draw per node, node order.
	if params.StragglerFrac > 0 && params.StragglerFactor > 1 {
		stream := src.Stream("fault.straggler")
		inj.slow = make([]float64, cluster.Size())
		for n := 0; n < cluster.Size(); n++ {
			if stream.Float64() < params.StragglerFrac {
				inj.slow[n] = params.StragglerFactor
				inj.stats.StragglerNodes++
			}
		}
		ag.SetSlowFactor(inj.slowFactor)
	}

	// Node failures: per-node exponential inter-failure sequences, node
	// order, each bounded by the horizon.
	if params.NodeMTBF > 0 {
		stream := src.Stream("fault.node")
		for n := 0; n < cluster.Size(); n++ {
			t := sim.Seconds(stream.Exp(params.NodeMTBF))
			for t < horizon {
				sched = append(sched, event{at: t0.Add(t), kind: evFail, node: n})
				if params.NodeDowntime <= 0 {
					break // permanent loss: the pilot shrinks for good
				}
				down := sim.Seconds(params.NodeDowntime)
				sched = append(sched, event{at: t0.Add(t + down), kind: evRestore, node: n})
				t += down + sim.Seconds(stream.Exp(params.NodeMTBF))
			}
		}
	}

	// Backend crashes: one pilot-wide exponential sequence; the instance
	// pick is drawn now and resolved at fire time (instances bootstrap
	// after the agent comes up, so the count is unknown here).
	if params.BackendMTBF > 0 {
		stream := src.Stream("fault.backend")
		ag.EnableElasticity()
		down := params.BackendDowntime
		if down <= 0 {
			down = 60
		}
		t := sim.Seconds(stream.Exp(params.BackendMTBF))
		for t < horizon {
			pair := len(inj.crashTarget)
			inj.crashTarget = append(inj.crashTarget, -1)
			sched = append(sched, event{at: t0.Add(t), kind: evCrash, node: pair, pick: stream.Float64()})
			sched = append(sched, event{at: t0.Add(t + sim.Seconds(down)), kind: evRestart, node: pair})
			t += sim.Seconds(down) + sim.Seconds(stream.Exp(params.BackendMTBF))
		}
	}

	// Merge deterministically: time, then kind, then node. The engine
	// breaks same-time ties by insertion order, so the sort order IS the
	// fire order.
	sort.SliceStable(sched, func(i, j int) bool {
		if sched[i].at != sched[j].at {
			return sched[i].at < sched[j].at
		}
		if sched[i].kind != sched[j].kind {
			return sched[i].kind < sched[j].kind
		}
		return sched[i].node < sched[j].node
	})
	// Optional cap on injected node failures (their restores stay paired).
	if params.MaxNodeFailures > 0 {
		seen := 0
		kept := sched[:0]
		cut := make(map[int]bool)
		for _, ev := range sched {
			switch ev.kind {
			case evFail:
				seen++
				if seen > params.MaxNodeFailures {
					cut[ev.node] = true
					continue
				}
			case evRestore:
				if cut[ev.node] {
					cut[ev.node] = false
					continue
				}
			}
			kept = append(kept, ev)
		}
		sched = kept
	}
	for _, ev := range sched {
		ev := ev
		eng.At(ev.at, func() { inj.fire(ev) })
	}
	return inj
}

// slowFactor is the agent's straggler hook.
func (inj *Injector) slowFactor(node int) float64 {
	if node < 0 || node >= len(inj.slow) || inj.slow[node] == 0 {
		return 1
	}
	return inj.slow[node]
}

// fire executes one schedule entry.
func (inj *Injector) fire(ev event) {
	switch ev.kind {
	case evFail:
		if !inj.cluster.FailNode(ev.node) {
			return
		}
		inj.stats.NodeFailures++
		reason := fmt.Sprintf("node %d failed", ev.node)
		inj.stats.Victims += inj.ag.FailNode(ev.node, reason)
		if inj.p.NodeDowntime <= 0 && inj.cluster.DownNodes() == inj.cluster.Size() {
			// Permanent total loss: no restore will ever come, so nothing
			// queued or backing off can place again. The pilot fails, and
			// its drain brings every remaining task to a terminal FAILED
			// instead of waiting forever on capacity that no longer exists.
			inj.fail("all pilot nodes permanently failed")
		}
	case evRestore:
		if !inj.cluster.RestoreNode(ev.node) {
			return
		}
		inj.stats.NodeRestores++
		// Backfill: the node's capacity is back; backends only reschedule
		// on completions, so kick their pumps or queued work can deadlock.
		inj.ag.KickBackends()
	case evCrash:
		// Before the agent bootstraps there is no instance (n == 0), and
		// the scan below finds nothing to crash.
		n := inj.ag.NumInstances()
		idx := int(ev.pick * float64(n))
		if idx >= n {
			idx = n - 1
		}
		// Scan from the drawn index for a crashable instance (srun cannot
		// crash: it is Slurm itself).
		for off := 0; off < n; off++ {
			i := (idx + off) % n
			if inj.ag.CrashInstance(i, "backend instance crashed") {
				inj.crashTarget[ev.node] = i
				inj.stats.BackendCrashes++
				return
			}
		}
	case evRestart:
		i := inj.crashTarget[ev.node]
		if i < 0 {
			return
		}
		inj.crashTarget[ev.node] = -1
		if inj.ag.RestartInstance(i) {
			inj.stats.BackendRestarts++
		}
	}
}

// Stats returns what the injector has done so far.
func (inj *Injector) Stats() Stats { return inj.stats }

// DownNodes reports how many of the pilot's nodes are currently down.
func (inj *Injector) DownNodes() int { return inj.cluster.DownNodes() }
