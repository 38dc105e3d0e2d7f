package agent

// The agent's data movers: the StagerIn and StagerOut of the pipeline.
// Tasks carrying sized StagingDirectives move real bytes through the
// pilot's storage hierarchy (internal/data) in two phases; tasks without
// them pass both stages at once:
//
//   1. stageInShared — before scheduling, inputs whose destination is a
//      shared tier (burst buffer pre-loads) transfer tier-to-tier through
//      the contention channels.
//   2. the staged body — after placement, the task body's prologue pulls
//      node-local inputs onto the placement nodes (skipping nodes that
//      already hold a replica: a locality hit), and its epilogue writes
//      output datasets back out while the task still holds its slots.
//
// Both run on a stagingRec that counts the transfers still pending and
// steps through the phases. A staged dispatch attempt is one stagedRec,
// its dispatch record and its stagingRec together; a task whose
// shared-tier stage-in has to wait gets a stagingRec of its own. Transfers
// complete through plain functions carrying the record or one of its
// transfer slots, so staging allocates no closures.
//
// preferNodes feeds the data-aware placement policy: the nodes already
// holding the task's node-local inputs, most bytes first, lowest node ID
// breaking ties. Only tasks with a node-local input carry it.

import (
	"cmp"
	"slices"

	"rpgo/internal/launch"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// stagePhase is the transfer phase a staging record waits in; each ends
// with the record's next step, run by the operation that zeroes its
// pending count.
type stagePhase uint8

const (
	// phaseShared: pre-placement tier-to-tier stage-in (stageInShared).
	phaseShared stagePhase = iota
	// phaseIn: the staged body's node-local stage-in, then its compute.
	phaseIn
	// phaseOut: the output write-back.
	phaseOut
)

// stagedRec is one staged dispatch attempt: its dispatch record, whose
// request's Events it is, and the staging state of its body. At 288 B it
// fills its size class exactly, and it is the attempt's one allocation
// unless the task stages in on several nodes or inputs.
type stagedRec struct {
	dispatchRec
	st stagingRec
}

// stagedBody is the process body of every staged dispatch attempt; the
// request's Events lead to its record.
func stagedBody(r *launch.Request, end func(*launch.Request)) {
	r.Events.(*stagedRec).st.run(end)
}

// stagingRec is one task's staging state: for a staged dispatch attempt,
// from the body's start to its end; for a shared-tier stage-in, from
// Submit to the scheduler. It replaces a chain of closures and wait groups.
// Its callbacks (stageXferDone, stageWriteDone, stageComputed) are plain
// functions that take the record or one of its slots as their argument:
// scheduling them allocates nothing, and a pilot that never stages pays
// nothing for them.
type stagingRec struct {
	a *Agent
	t *Task
	// d is the dispatch attempt whose body this is; nil for a shared-tier
	// stage-in, which belongs to no attempt. d.req.Pl holds the nodes the
	// attempt was placed on.
	d *dispatchRec
	// inner is the compute body (nil: sleep TD.Duration); end is the
	// launcher's completion for the attempt's request.
	inner func(sim.Time, func())
	end   func(*launch.Request)
	// gen is the task's dispatch generation when the attempt was made.
	// Every step checks it: after a relocation the orphaned record's
	// transfers still complete, but it no longer touches the trace or the
	// task.
	gen   int
	phase stagePhase
	// pending counts the transfers the current phase still waits on, plus
	// one held while they are issued.
	pending int
	// inStart and outStart are when stage-in and stage-out began.
	inStart, outStart sim.Time
	// in0 is the first stage-in slot; further ones are allocated as
	// needed (multi-node tasks and several inputs).
	in0 stageXfer
}

// stageXfer is one stage-in a record waits on, its own transfer or one it
// rides: the causal edge its completion records.
type stageXfer struct {
	r    *stagingRec
	kind profiler.EdgeKind
	uid  string
}

// live reports whether the record's attempt is still the task's current
// one. A shared-tier stage-in has no attempt and is always live.
func (r *stagingRec) live() bool { return r.d == nil || r.t.gen == r.gen }

// slot returns a fresh stage-in slot of the record.
func (r *stagingRec) slot() *stageXfer {
	if r.in0.r == nil {
		r.in0.r = r
		return &r.in0
	}
	return &stageXfer{r: r}
}

// stageInShared runs pre-placement staging for every input directive whose
// destination is a shared tier, then hands the task to the scheduler: at
// once when there is nothing to wait for, else once the last transfer
// completes. Only a task that has to wait for a transfer gets a staging
// record.
func (a *Agent) stageInShared(t *Task) {
	var r *stagingRec
	for i := range t.TD.InputData {
		d := &t.TD.InputData[i]
		// Inputs are by definition present at their source tier.
		a.dataSys.Seed(d.Dataset, d.Source)
		if d.Dest == spec.TierNodeLocal {
			continue // node-local staging happens in the body
		}
		// A disabled burst buffer is the parallel FS: a destination that
		// degrades to the source tier is where the input already is.
		dest := a.dataSys.EffectiveTier(d.Dest)
		if dest == a.dataSys.EffectiveTier(d.Source) {
			continue
		}
		if a.dataSys.Registry().HasTier(d.Dataset, dest) {
			t.Trace.DataHits++
			a.dataSys.RecordHit()
			continue
		}
		if r == nil {
			r = &stagingRec{a: a, t: t, phase: phaseShared, pending: 1, inStart: a.eng.Now()}
		}
		r.stageIn(d, -1)
	}
	if r != nil {
		r.settle()
		return
	}
	a.stagedIn(t)
}

// run is the staged process body of r's attempt: pull missing input
// replicas onto the placement nodes, run the compute (the inner body, or
// the plain Duration sleep), write output datasets out, and only then
// end. The wall time a task spends staging is time its slots stay busy —
// exactly how staging on a compute node behaves. The placer wrote the
// attempt's placement into its request before the body starts.
func (r *stagingRec) run(end func(*launch.Request)) {
	a, t := r.a, r.t
	r.end, r.inStart, r.phase, r.pending = end, a.eng.Now(), phaseIn, 1
	for i := range t.TD.InputData {
		d := &t.TD.InputData[i]
		if d.Dest != spec.TierNodeLocal {
			continue
		}
		// Multi-node tasks replicate node-local inputs on every
		// placement node (data-parallel ranks each read locally).
		for _, n := range r.d.req.Pl.NodeIDs {
			if a.dataSys.Registry().HasNode(d.Dataset, n) {
				t.Trace.DataHits++
				a.dataSys.RecordHit()
				continue
			}
			r.stageIn(d, n)
		}
	}
	r.settle()
}

// stageIn waits for one input of r's task: it rides an in-flight copy of
// d's dataset to node (node < 0: to the shared tier d.Dest) when there is
// one, else starts its own. The caller has checked the registry already;
// the task is charged a hit for a ride and a miss for its own transfer.
func (r *stagingRec) stageIn(d *spec.StagingDirective, node int) {
	a, t := r.a, r.t
	r.pending++
	x := r.slot()
	x.kind = profiler.EdgeTransfer
	var uid string
	var ok bool
	if node >= 0 {
		uid, ok = a.dataSys.JoinPending(d.Dataset, node, stageXferDone, x)
	} else {
		uid, ok = a.dataSys.JoinPendingTier(d.Dataset, d.Dest, stageXferDone, x)
	}
	if ok {
		// Another task is already moving this copy: ride its transfer
		// instead of duplicating it.
		x.uid = uid
		t.Trace.DataHits++
		a.dataSys.RecordHit()
		return
	}
	t.Trace.DataMisses++
	a.dataSys.RecordMiss()
	t.Trace.BytesIn += d.SizeBytes
	x.kind = profiler.EdgeStage
	if node >= 0 {
		x.uid = a.dataSys.StageToNode(t.TD.UID, d.Dataset, d.SizeBytes, d.Source, node, stageXferDone, x)
	} else {
		x.uid = a.dataSys.TierTransfer(t.TD.UID, d.Dataset, d.SizeBytes, d.Source, d.Dest, stageXferDone, x)
	}
}

// stageXferDone runs when a stage-in a record waits on completes: a live
// record records what it was blocked on.
func stageXferDone(arg any) {
	x := arg.(*stageXfer)
	r := x.r
	if now := r.a.eng.Now(); r.live() && now > r.inStart {
		r.t.Trace.AddEdge(profiler.CausalEdge{Kind: x.kind, From: r.inStart, To: now, Ref: x.uid})
	}
	r.settle()
}

// stageWriteDone runs when one of a record's output writes completes.
func stageWriteDone(arg any) { arg.(*stagingRec).settle() }

// stageComputed runs when a record's plain Duration compute ends.
func stageComputed(arg any) { arg.(*stagingRec).computed() }

// settle counts one of r's pending operations done. The last one runs the
// phase's next step.
func (r *stagingRec) settle() {
	r.pending--
	if r.pending == 0 {
		r.step()
	}
}

// step moves the task on from a phase whose transfers have all completed.
func (r *stagingRec) step() {
	a, t := r.a, r.t
	now := a.eng.Now()
	if r.phase == phaseShared {
		t.Trace.StageIn += now.Sub(r.inStart)
		a.stagedIn(t)
		return
	}
	if !r.live() {
		return
	}
	switch r.phase {
	case phaseIn:
		t.Trace.StageIn += now.Sub(r.inStart)
		if r.inner != nil {
			r.inner(now, r.computed)
		} else {
			a.eng.AfterCall(t.TD.Duration, stageComputed, r)
		}
	case phaseOut:
		t.Trace.StageOut += now.Sub(r.outStart)
		r.end(&r.d.req)
	}
}

// computed runs when the compute body ends: it writes the task's output
// datasets out from its primary node.
func (r *stagingRec) computed() {
	if !r.live() {
		return
	}
	a, t := r.a, r.t
	r.phase = phaseOut
	r.outStart = a.eng.Now()
	primary := -1
	if nodes := r.d.req.Pl.NodeIDs; len(nodes) > 0 {
		primary = nodes[0]
	}
	r.pending = 1
	for i := range t.TD.OutputData {
		d := &t.TD.OutputData[i]
		t.Trace.BytesOut += d.SizeBytes
		r.pending++
		a.dataSys.WriteFromNode(t.TD.UID, d.Dataset, d.SizeBytes, primary, d.Dest, stageWriteDone, r)
	}
	r.settle()
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

// preferRequest is the Prefer hook of a data-aware consumer's request:
// preferNodes of its task.
func (a *Agent) preferRequest(r *launch.Request) []int { return a.preferNodes(r.TD) }

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
