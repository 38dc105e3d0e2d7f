package agent

// The agent's data movers: the StagerIn and StagerOut of the pipeline.
// Tasks carrying sized StagingDirectives move real bytes through the
// pilot's storage hierarchy (internal/data) in two phases; tasks without
// them pass both stages at once:
//
//   1. stageInShared — before scheduling, inputs whose destination is a
//      shared tier (burst buffer pre-loads) transfer tier-to-tier through
//      the contention channels.
//   2. dataBody — after placement, the task body's prologue pulls
//      node-local inputs onto the placement nodes (skipping nodes that
//      already hold a replica: a locality hit), and its epilogue writes
//      output datasets back out while the task still holds its slots.
//
// preferNodes feeds the data-aware placement policy: the nodes already
// holding the task's node-local inputs, most bytes first, lowest node ID
// breaking ties. Only tasks with a node-local input carry it.

import (
	"cmp"
	"slices"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// stageEdgeDone wraps a staging waitgroup Done with causal-edge emission:
// when the transfer (own or ridden) resolves, the task records what it was
// blocked on. ok gates trace writes (dataBody's generation guard); uid is
// read at fire time, so callers may assign it after registering the
// callback — transfer completions are always later engine events.
func stageEdgeDone(eng *sim.Engine, t *Task, kind profiler.EdgeKind, uid *string, from sim.Time, ok func() bool, done func()) func() {
	return func() {
		now := eng.Now()
		if ok() && now > from {
			t.Trace.AddEdge(profiler.CausalEdge{Kind: kind, From: from, To: now, Ref: *uid})
		}
		done()
	}
}

func always() bool { return true }

// stageInShared runs pre-placement staging for every input directive whose
// destination is a shared tier, then hands the task to the scheduler.
func (a *Agent) stageInShared(t *Task) {
	wg := sim.NewWaitGroup(a.eng)
	wg.Add(1) // held until all directives are dispatched
	start := a.eng.Now()
	for i := range t.TD.InputData {
		d := t.TD.InputData[i]
		// Inputs are by definition present at their source tier.
		a.dataSys.Seed(d.Dataset, d.SizeBytes, d.Source)
		if d.Dest == spec.TierNodeLocal || d.Dest == d.Source {
			continue // node-local staging happens in the body
		}
		if a.dataSys.Registry().HasTier(d.Dataset, d.Dest) {
			t.Trace.DataHits++
			a.dataSys.RecordHit()
			continue
		}
		wg.Add(1)
		var xuid string
		if uid, ok := a.dataSys.JoinPendingTier(d.Dataset, d.Dest,
			stageEdgeDone(a.eng, t, profiler.EdgeTransfer, &xuid, start, always, wg.Done)); ok {
			// Another task is already staging this dataset to the
			// tier: ride its transfer instead of duplicating it.
			xuid = uid
			t.Trace.DataHits++
			a.dataSys.RecordHit()
			continue
		}
		t.Trace.DataMisses++
		a.dataSys.RecordMiss()
		t.Trace.BytesIn += d.SizeBytes
		xuid = a.dataSys.TierTransfer(t.TD.UID, d.Dataset, d.SizeBytes, d.Source, d.Dest,
			stageEdgeDone(a.eng, t, profiler.EdgeStage, &xuid, start, always, wg.Done))
	}
	wg.Done()
	wg.Wait(func() {
		t.Trace.StageIn += a.eng.Now().Sub(start)
		a.stagedIn(t)
	})
}

// prefersNodes reports whether td's launch request carries a placement
// preference: under the data-aware policy, a task with at least one
// node-local input. Only those can ever be preferred onto a node.
func (a *Agent) prefersNodes(td *spec.TaskDescription) bool {
	if a.desc.Placement != spec.PlaceDataAware {
		return false
	}
	for i := range td.InputData {
		if td.InputData[i].Dest == spec.TierNodeLocal {
			return true
		}
	}
	return false
}

// nodeScore is one candidate node of a preference list and the input bytes
// it holds or is receiving.
type nodeScore struct {
	node  int
	bytes int64
}

// preferNodes builds the placement preference list for a task under the
// data-aware policy: nodes already holding its node-local input datasets,
// ordered by bytes held descending, node ID ascending. It allocates
// nothing once its scratch has grown: the scores, the slot index and the
// returned list are the agent's own, and the list is valid until the next
// call — the placer reads it only during the placement call it asked for.
func (a *Agent) preferNodes(td *spec.TaskDescription) []int {
	if a.prefSlot == nil {
		a.prefSlot = make([]int32, a.alloc.Size())
	}
	// Replicas and stage-in targets are nodes of this pilot's allocation,
	// a contiguous run of IDs from base.
	base := a.alloc.Nodes[0].ID
	sc := a.prefScores[:0]
	add := func(node int, bytes int64) {
		if s := a.prefSlot[node-base]; s > 0 {
			sc[s-1].bytes += bytes
			return
		}
		sc = append(sc, nodeScore{node, bytes})
		a.prefSlot[node-base] = int32(len(sc))
	}
	for i := range td.InputData {
		d := &td.InputData[i]
		if d.Dest != spec.TierNodeLocal {
			continue
		}
		for _, n := range a.dataSys.Registry().NodesHolding(d.Dataset) {
			add(n, d.SizeBytes)
		}
		// Nodes a replica is in flight to are nearly as good: the task
		// joins the pending transfer instead of paying for its own.
		a.dataSys.EachPending(d.Dataset, func(n int) { add(n, d.SizeBytes/2) })
	}
	if len(sc) == 0 {
		return nil
	}
	// Node IDs are unique in sc, so this order is total: neither the
	// pending set's iteration order nor the sort's stability shows.
	slices.SortFunc(sc, func(x, y nodeScore) int {
		if c := cmp.Compare(y.bytes, x.bytes); c != 0 {
			return c
		}
		return cmp.Compare(x.node, y.node)
	})
	ids := a.prefIDs[:0]
	for _, s := range sc {
		ids = append(ids, s.node)
		a.prefSlot[s.node-base] = 0
	}
	a.prefScores, a.prefIDs = sc, ids
	return ids
}

// dataBody wraps a task's process body with node-local staging: pull
// missing input replicas onto the placement nodes, run the compute (the
// inner body, or the plain Duration sleep), write output datasets out, and
// only then complete. The wall time a task spends staging is time its
// slots stay busy — exactly how staging on a compute node behaves.
// placed points at the node IDs captured by the launch request's OnPlaced
// hook, which always fires before the body starts.
func (a *Agent) dataBody(t *Task, inner func(sim.Time, func()), placed *[]int) func(sim.Time, func()) {
	// Generation guard, same idiom as coupledBody: after a mid-run crash
	// the agent re-dispatches with a fresh body, and the orphaned one
	// must stop without touching the trace or the registry further.
	gen := t.gen
	live := func() bool { return t.gen == gen }
	return func(start sim.Time, done func()) {
		nodes := *placed
		wg := sim.NewWaitGroup(a.eng)
		wg.Add(1)
		for i := range t.TD.InputData {
			d := t.TD.InputData[i]
			if d.Dest != spec.TierNodeLocal {
				continue
			}
			// Multi-node tasks replicate node-local inputs on every
			// placement node (data-parallel ranks each read locally).
			for _, n := range nodes {
				if a.dataSys.Registry().HasNode(d.Dataset, n) {
					t.Trace.DataHits++
					a.dataSys.RecordHit()
					continue
				}
				wg.Add(1)
				var xuid string
				if uid, ok := a.dataSys.JoinPending(d.Dataset, n,
					stageEdgeDone(a.eng, t, profiler.EdgeTransfer, &xuid, start, live, wg.Done)); ok {
					// Another task is already pulling this replica:
					// ride its transfer instead of duplicating it.
					xuid = uid
					t.Trace.DataHits++
					a.dataSys.RecordHit()
					continue
				}
				t.Trace.DataMisses++
				a.dataSys.RecordMiss()
				t.Trace.BytesIn += d.SizeBytes
				xuid = a.dataSys.StageToNode(t.TD.UID, d.Dataset, d.SizeBytes, d.Source, n,
					stageEdgeDone(a.eng, t, profiler.EdgeStage, &xuid, start, live, wg.Done))
			}
		}
		wg.Done()
		wg.Wait(func() {
			if !live() {
				return
			}
			t.Trace.StageIn += a.eng.Now().Sub(start)
			compute := func(finish func()) {
				if inner != nil {
					inner(a.eng.Now(), finish)
				} else {
					a.eng.After(t.TD.Duration, finish)
				}
			}
			compute(func() {
				if !live() {
					return
				}
				outStart := a.eng.Now()
				primary := -1
				if len(nodes) > 0 {
					primary = nodes[0]
				}
				owg := sim.NewWaitGroup(a.eng)
				owg.Add(1)
				for i := range t.TD.OutputData {
					d := t.TD.OutputData[i]
					t.Trace.BytesOut += d.SizeBytes
					owg.Add(1)
					a.dataSys.WriteFromNode(t.TD.UID, d.Dataset, d.SizeBytes, primary, d.Dest, owg.Done)
				}
				owg.Done()
				owg.Wait(func() {
					if !live() {
						return
					}
					t.Trace.StageOut += a.eng.Now().Sub(outStart)
					done()
				})
			})
		})
	}
}
