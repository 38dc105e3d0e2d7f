package agent

// The agent's failure-handling surface: node eviction and backend
// crash/restart entry points driven by the fault injector (internal/fault),
// and the fault-aware compute body that stretches execution on straggler
// nodes and checkpoints through the data subsystem so a relocated attempt
// resumes from its last saved fraction.

import (
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

// SetSlowFactor installs the straggler model: fn maps a node ID to an
// execution-time stretch factor (≥ 1). Plain fixed-Duration compute bodies
// dispatched afterwards run at the slowest placed node's factor.
func (a *Agent) SetSlowFactor(fn func(node int) float64) { a.slowFactor = fn }

// EnableElasticity marks the pilot as managed by a fault injector: a group
// whose instances are all down parks tasks until a restart instead of
// failing them.
func (a *Agent) EnableElasticity() { a.elastic = true }

// FailNode evicts everything running on a node across all backends: each
// victim's slots release and its request fails back into the agent's
// retry/relocation path. The node's local replicas are dropped from the
// data registry (its NVMe died with it), so data-aware placement stops
// preferring it and restarted tasks re-stage. Returns the victim count.
// The caller (the injector) fails the node in the cluster first, so the
// bumped epoch invalidates placer watermarks before victims re-place.
func (a *Agent) FailNode(node int, reason string) int {
	victims := 0
	for _, g := range a.groups {
		for _, l := range g.launchers {
			victims += l.FailNode(node, reason)
		}
	}
	a.dataSys.Registry().EvictNode(node)
	return victims
}

// KickBackends re-runs every live backend's scheduling pump. Needed after
// a restored node returns capacity: backends otherwise only reschedule on
// completions, so queued work could deadlock against idle nodes.
func (a *Agent) KickBackends() {
	for _, g := range a.groups {
		for i, l := range g.launchers {
			if g.alive[i] {
				l.Kick()
			}
		}
	}
}

// NumInstances returns the number of backend launcher instances across all
// executor groups (the flat index space of CrashInstance/RestartInstance).
func (a *Agent) NumInstances() int {
	n := 0
	for _, g := range a.groups {
		n += len(g.launchers)
	}
	return n
}

// CrashInstance crashes backend instance i (flat index across groups):
// queued and running tasks fail back into the agent's retry path and the
// instance is marked dead through its OnException hook. Returns false when
// the instance is already down or has no instance process to crash (srun).
func (a *Agent) CrashInstance(i int, reason string) bool {
	g, idx := a.instanceAt(i)
	if g == nil || !g.alive[idx] {
		return false
	}
	return g.launchers[idx].Crash(reason)
}

// RestartInstance re-bootstraps a crashed instance; once it is back up the
// agent marks it live again and flushes the group's pending tasks. Returns
// false when the instance is alive or cannot restart, and on a draining
// pilot, whose instances must not take a new srun slot.
func (a *Agent) RestartInstance(i int) bool {
	g, idx := a.instanceAt(i)
	if g == nil || a.draining || g.alive[idx] || !g.launchers[idx].Restart() {
		return false
	}
	g.launchers[idx].Ready(func() {
		g.alive[idx] = true
		a.launcherReady(g)
	})
	return true
}

// instanceAt resolves a flat instance index to (group, index-in-group).
func (a *Agent) instanceAt(i int) (*executorGroup, int) {
	if i < 0 {
		return nil, -1
	}
	for _, g := range a.groups {
		if i < len(g.launchers) {
			return g, i
		}
		i -= len(g.launchers)
	}
	return nil, -1
}

// computeBody builds the fault-aware process body for a plain
// fixed-Duration task: execution stretches by the slowest placed node's
// straggler factor, and a checkpointed task cuts its work into segments
// that each end with a synchronous checkpoint write through the data
// subsystem (contending for shared-FS bandwidth like any flow). After a
// failure the relocated attempt stages the last checkpoint back to its new
// primary node — skipped when the node already holds it — and resumes from
// the saved fraction. Every continuation is generation-guarded, so a stale
// attempt's timers and transfer completions are inert.
func (a *Agent) computeBody(t *Task, pl *platform.Placement) func(sim.Time, func()) {
	gen := t.gen
	live := func() bool { return t.gen == gen }
	return func(start sim.Time, done func()) {
		total := t.TD.Duration
		if a.slowFactor != nil {
			f := 1.0
			for _, n := range pl.NodeIDs {
				if sf := a.slowFactor(n); sf > f {
					f = sf
				}
			}
			if f > 1 {
				total = sim.Duration(float64(total) * f)
			}
		}
		if !t.TD.Checkpointed() || t.TD.Duration <= 0 {
			a.eng.After(total, func() {
				if live() {
					done()
				}
			})
			return
		}
		node := -1
		if len(pl.NodeIDs) > 0 {
			node = pl.NodeIDs[0]
		}
		// Work is tracked as a fraction of the original Duration, so the
		// saved fraction carries across relocations even when the new
		// node's straggler factor differs.
		segFrac := float64(t.TD.CheckpointInterval) / float64(t.TD.Duration)
		ds := "ckpt." + t.TD.UID
		var step func()
		step = func() {
			if !live() {
				return
			}
			remain := 1 - t.ckptFrac
			if remain <= 1e-9 {
				done()
				return
			}
			if segFrac >= remain {
				// Final partial segment: finish without another write.
				a.eng.After(sim.Duration(remain*float64(total)), func() {
					if live() {
						done()
					}
				})
				return
			}
			a.eng.After(sim.Duration(segFrac*float64(total)), func() {
				if !live() {
					return
				}
				ws := a.eng.Now()
				var xuid string
				xuid = a.dataSys.WriteFromNode(t.TD.UID, ds, t.TD.CheckpointBytes,
					node, t.TD.CheckpointDest, func(any) {
						if !live() {
							return
						}
						now := a.eng.Now()
						if now > ws {
							t.Trace.AddEdge(profiler.CausalEdge{
								Kind: profiler.EdgeCheckpoint, From: ws, To: now, Ref: xuid,
							})
						}
						t.Trace.BytesOut += t.TD.CheckpointBytes
						// The fraction advances only once the image is
						// durable: dying mid-write restarts the segment.
						t.ckptFrac += segFrac
						t.ckptSaved = true
						step()
					}, nil)
			})
		}
		if t.ckptSaved {
			if node >= 0 && !a.dataSys.Registry().HasNode(ds, node) {
				// Restore: stage the checkpoint to the new primary node
				// before resuming.
				t.Trace.DataMisses++
				a.dataSys.RecordMiss()
				rs := a.eng.Now()
				var ruid string
				ruid = a.dataSys.StageToNode(t.TD.UID, ds, t.TD.CheckpointBytes,
					t.TD.CheckpointDest, node, func(any) {
						if !live() {
							return
						}
						now := a.eng.Now()
						if now > rs {
							t.Trace.AddEdge(profiler.CausalEdge{
								Kind: profiler.EdgeCheckpoint, From: rs, To: now, Ref: ruid,
							})
						}
						t.Trace.BytesIn += t.TD.CheckpointBytes
						step()
					}, nil)
				return
			}
			// Relocated onto a node that still holds the image (or the
			// same node): restore is a local read.
			t.Trace.DataHits++
			a.dataSys.RecordHit()
		}
		step()
	}
}
