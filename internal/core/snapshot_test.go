package core_test

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"rpgo/internal/core"
	"rpgo/internal/data"
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
