package core_test

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"rpgo/internal/core"
	"rpgo/internal/data"
	"rpgo/internal/model"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/workload"
)

// TestSnapshotKeysOnePilot pins the metric keys a one-pilot session
// exports: the session's snapshot is the one place keys are created.
func TestSnapshotKeysOnePilot(t *testing.T) {
	sess := core.NewSession(core.Config{Seed: 3})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	tm := sess.TaskManager(pilot)
	tm.Submit(workload.Dummy(8, 10*sim.Second))
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	snap := sess.MetricsSnapshot()
	wantCounters := []string{
		"agent.dispatches", "agent.retries",
		"blame.chain_links", "blame.checkpoint_seconds", "blame.data_seconds",
		"blame.exec_seconds", "blame.failure_seconds", "blame.makespan_seconds",
		"blame.middleware_seconds", "blame.queue_seconds", "blame.service_seconds",
		"blame.starve_seconds",
		"data.bytes_total", "data.coalesced_joins", "data.contention_stalls",
		"data.locality_hits", "data.locality_misses", "data.transfers",
		"launch.affinity_hits", "launch.attempts", "launch.backfill_hits",
		"launch.placed", "launch.queue_highwater", "launch.scan_failures",
		"launch.watermark_skips",
		"service.failed", "service.scale_events", "service.served",
		"sim.events", "sim.heap_highwater", "sim.heap_pushes", "sim.pool_free", "sim.pool_slots",
		"sim.timer_cancellations",
		"slurm.srun_highwater",
	}
	wantGauges := []string{"agent.inflight_tasks", "data.active_flows"}
	if got := slices.Sorted(maps.Keys(snap.Counters)); !slices.Equal(got, wantCounters) {
		t.Errorf("counter keys:\n got %q\nwant %q", got, wantCounters)
	}
	if got := slices.Sorted(maps.Keys(snap.Gauges)); !slices.Equal(got, wantGauges) {
		t.Errorf("gauge keys:\n got %q\nwant %q", got, wantGauges)
	}
	if g := snap.Gauges["agent.inflight_tasks"]; g.Last != 0 || g.Max != 8 {
		t.Errorf("agent.inflight_tasks = %+v after the run, want last=0 max=8", g)
	}
}

// TestSnapshotGaugesSumOverPilots reads the two gauges mid-run in a session
// with two pilots: last is the current value summed over the pilots and max
// the largest pilot's peak.
func TestSnapshotGaugesSumOverPilots(t *testing.T) {
	sess := core.NewSession(core.Config{Seed: 4})
	sizes := []int{6, 4} // tasks per pilot, one node each
	for i, n := range sizes {
		pilot, err := sess.SubmitPilot(spec.PilotDescription{Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		tds := workload.Dummy(n, sim.Hour)
		for j, td := range tds {
			// One distinct 64 GiB input per task: every stage-in is its
			// own flow, and all of a pilot's flows are in flight at once.
			td.InputData = []spec.StagingDirective{{
				Dataset:   fmt.Sprintf("in.%d.%d", i, j),
				SizeBytes: 64 * data.GB,
				Source:    spec.TierSharedFS,
				Dest:      spec.TierNodeLocal,
			}}
		}
		sess.TaskManager(pilot).Submit(tds)
	}
	sess.RunUntil(sim.Time(30 * sim.Second))
	for i, p := range sess.Pilots() {
		if got := p.Agent.Data().InFlight(); got != sizes[i] {
			t.Fatalf("pilot %d has %d flows in flight at 30 s, the test needs %d", i, got, sizes[i])
		}
	}
	snap := sess.LiveSnapshot()
	for _, k := range []string{"agent.inflight_tasks", "data.active_flows"} {
		if g := snap.Gauges[k]; g.Last != 10 || g.Max != 6 {
			t.Errorf("%s = %+v at 30 s, want last=10 (6+4) max=6", k, g)
		}
	}
}

// TestSnapshotFaultsAndServices snapshots a session mid-run, once its fault
// injector has failed, restored and crashed, with a node down, and once its
// autoscaled endpoint has served requests and scaled: each fault.* and
// service.* key must read what the injector and the endpoint report.
func TestSnapshotFaultsAndServices(t *testing.T) {
	params := model.Default()
	params.Fault = model.FaultParams{
		NodeMTBF: 600, NodeDowntime: 120,
		BackendMTBF: 300, BackendDowntime: 30,
		StragglerFrac: 0.5, StragglerFactor: 2,
		Horizon: 3600,
	}
	sess := core.NewSession(core.Config{Seed: 5, Params: &params})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes: 4,
		Partitions: []spec.PartitionConfig{
			{Backend: spec.BackendFlux, Instances: 1, NodeShare: 0.5},
			{Backend: spec.BackendDragon, Instances: 1, NodeShare: 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := pilot.DeployService(spec.ServiceDescription{
		Name:           "model",
		Backend:        spec.BackendDragon,
		GPUsPerReplica: 1,
		StartupDelay:   10 * sim.Second,
		BaseLatency:    100 * sim.Millisecond,
		PerItemLatency: 15 * sim.Millisecond,
		MaxBatch:       8,
		BatchWindow:    20 * sim.Millisecond,
		Replicas:       1,
		MaxReplicas:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	tds := workload.Dummy(400, 60*sim.Second)
	for _, td := range tds {
		td.MaxRetries = 10
	}
	sess.TaskManager(pilot).Submit(tds)
	// Forty requests a second, more than one replica serves.
	var call func()
	call = func() {
		h.Call(func(sim.Time, bool) {})
		sess.Engine.After(25*sim.Millisecond, call)
	}
	h.Ready(call)

	inj := pilot.Faults
	reached := func() bool {
		st, es := inj.Stats(), h.Stats()
		return st.NodeFailures > 0 && st.NodeRestores > 0 && st.BackendCrashes > 0 &&
			st.BackendRestarts > 0 && st.Victims > 0 && st.StragglerNodes > 0 &&
			inj.DownNodes() > 0 && es.Served > 0 && len(es.ScaleEvents) > 0
	}
	for now := sess.Engine.Now(); !reached(); {
		if now >= sim.Time(params.Fault.Horizon*float64(sim.Second)) {
			t.Fatalf("by %v the injector reports %+v with %d nodes down, and the endpoint served %d with %d scale events; the test needs each above 0",
				now, inj.Stats(), inj.DownNodes(), h.Stats().Served, len(h.Stats().ScaleEvents))
		}
		now = now.Add(10 * sim.Second)
		sess.RunUntil(now)
	}
	snap := sess.LiveSnapshot()
	st, es := inj.Stats(), h.Stats()
	want := map[string]float64{
		"fault.node_failures":    float64(st.NodeFailures),
		"fault.node_restores":    float64(st.NodeRestores),
		"fault.backend_crashes":  float64(st.BackendCrashes),
		"fault.backend_restarts": float64(st.BackendRestarts),
		"fault.victims":          float64(st.Victims),
		"fault.straggler_nodes":  float64(st.StragglerNodes),
		"fault.down_nodes":       float64(inj.DownNodes()),
		"service.served":         float64(es.Served),
		"service.failed":         float64(es.Failed),
		"service.scale_events":   float64(len(es.ScaleEvents)),
	}
	for _, k := range slices.Sorted(maps.Keys(want)) {
		if got, ok := snap.Counters[k]; !ok || got != want[k] {
			t.Errorf("%s = %v (present %t) at %v, want %v", k, got, ok, sess.Engine.Now(), want[k])
		}
	}
	t.Logf("at %v: %+v, %d nodes down; served %d, failed %d, %d scale events",
		sess.Engine.Now(), st, inj.DownNodes(), es.Served, es.Failed, len(es.ScaleEvents))
}
