package experiments

// Live-introspection tests at the campaign level: the shards=1 snapshot
// equivalence property, golden fingerprints under full instrumentation,
// and non-zero per-shard telemetry on a genuinely parallel run.

import (
	"strings"
	"testing"
	"time"

	"rpgo/internal/campaign"
	"rpgo/internal/core"
	"rpgo/internal/obs"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/workload"
)

// fig8Session runs the golden Fig 8 campaign on a plain session and
// returns its metrics snapshot.
func fig8Session(t *testing.T) *obs.Snapshot {
	t.Helper()
	sess := core.NewSession(core.Config{Seed: 424242})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{Nodes: 128, SMT: 1, Partitions: FluxPartitions(1)})
	if err != nil {
		t.Fatal(err)
	}
	tm := sess.TaskManager(pilot)
	camp := campaign.New(campaign.Config{Nodes: 128, MaxIters: 6, MaxRetries: 2}, sess, tm)
	if err := camp.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	return sess.MetricsSnapshot()
}

// TestShardedSnapshotMatchesPlainAtOneShard is the merge-correctness
// property: a Domains=1/Shards=1 sharded session's merged snapshot must be
// key-for-key identical to the plain single-engine snapshot on the golden
// Fig 8 run — the only additions allowed are the sharded.* window group
// and the shard0.* per-shard group, whose event count must equal the
// engine total.
func TestShardedSnapshotMatchesPlainAtOneShard(t *testing.T) {
	plain := fig8Session(t)

	ss := core.NewShardedSession(core.ShardedConfig{Seed: 424242, Domains: 1, Shards: 1})
	pilot, err := ss.SubmitPilot(0, spec.PilotDescription{Nodes: 128, SMT: 1, Partitions: FluxPartitions(1)})
	if err != nil {
		t.Fatal(err)
	}
	tm := ss.TaskManager(pilot)
	camp := campaign.New(campaign.Config{Nodes: 128, MaxIters: 6, MaxRetries: 2}, ss.Client(), tm)
	if err := camp.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	sharded := ss.MetricsSnapshot()

	for k, v := range plain.Counters {
		sv, ok := sharded.Counters[k]
		if !ok {
			t.Errorf("sharded snapshot lost counter %q", k)
			continue
		}
		if sv != v {
			t.Errorf("counter %q: sharded %g, plain %g", k, sv, v)
		}
	}
	shardedExtra := func(k string) bool {
		return strings.HasPrefix(k, "sharded.") || strings.HasPrefix(k, "shard0.")
	}
	for k := range sharded.Counters {
		if _, ok := plain.Counters[k]; !ok && !shardedExtra(k) {
			t.Errorf("sharded snapshot grew unexpected counter %q", k)
		}
	}
	for k, v := range plain.Gauges {
		if sharded.Gauges[k] != v {
			t.Errorf("gauge %q: sharded %+v, plain %+v", k, sharded.Gauges[k], v)
		}
	}
	for k := range sharded.Gauges {
		if _, ok := plain.Gauges[k]; !ok && !shardedExtra(k) {
			t.Errorf("sharded snapshot grew unexpected gauge %q", k)
		}
	}

	// The shard0 prefix is the only renaming: shard 0 hosted everything, so
	// its event count is the engine total.
	if sharded.Counters["shard0.events"] != plain.Counters["sim.events"] {
		t.Errorf("shard0.events = %g, want sim.events = %g",
			sharded.Counters["shard0.events"], plain.Counters["sim.events"])
	}
	if sharded.Counters["sharded.shards"] != 1 || sharded.Counters["sharded.cross_events"] != 0 {
		t.Errorf("one-domain run reports shards=%g cross=%g",
			sharded.Counters["sharded.shards"], sharded.Counters["sharded.cross_events"])
	}
}

// TestGoldenFig8WithInstrumentation: attaching the self-profiler AND the
// monitor must not perturb the simulation — the golden fingerprint stays
// bit-identical — while the profiler actually measures the run and the
// monitor reaches 100% progress.
func TestGoldenFig8WithInstrumentation(t *testing.T) {
	prof := obs.NewSelfProfiler()
	mon := obs.NewMonitor(time.Nanosecond) // publish on (almost) every beat
	res := RunImpeccable(ImpeccableConfig{
		Nodes:    128,
		Backend:  spec.BackendFlux,
		Seed:     424242,
		MaxIters: 6,
		Profile:  prof,
		Monitor:  mon,
	})
	if got := fingerprintTraces(res.Traces); got != goldenFig8Tasks {
		t.Fatalf("instrumentation perturbed the golden Fig 8 run: got %#x, want %#x", got, goldenFig8Tasks)
	}
	if prof.Samples(sim.PhaseDispatch) == 0 {
		t.Error("profiler saw no dispatch samples")
	}
	if prof.Samples(sim.PhasePlacement) == 0 {
		t.Error("profiler saw no placement samples")
	}
	if prof.TotalNs(sim.PhaseDispatch) <= 0 {
		t.Error("dispatch wall time not measured")
	}
	if mon.Publishes() == 0 {
		t.Error("monitor never published during the campaign")
	}
	done, total := mon.Progress()
	if total == 0 || done != total {
		t.Errorf("final progress %d/%d, want complete", done, total)
	}
	snap := mon.Snapshot()
	if snap == nil {
		t.Fatal("no published snapshot")
	}
	if snap.Counters["sim.events"] == 0 {
		t.Error("published snapshot has no engine events")
	}
	if snap.Counters["selfprof.dispatch.samples"] == 0 {
		t.Error("published snapshot carries no self-profile")
	}
}

// TestGoldenShardedWithInstrumentation: same non-perturbation property for
// the sharded path, at Pilots=1/Shards=1 against the same golden hash.
func TestGoldenShardedWithInstrumentation(t *testing.T) {
	prof := obs.NewSelfProfiler()
	res := RunShardedImpeccable(ShardedImpeccableConfig{
		Nodes:    128,
		Pilots:   1,
		Shards:   1,
		Backend:  spec.BackendFlux,
		Seed:     424242,
		MaxIters: 6,
		Profile:  prof,
		Monitor:  obs.NewMonitor(time.Nanosecond),
	})
	if got := fingerprintTraces(res.Traces); got != goldenFig8Tasks {
		t.Fatalf("instrumentation perturbed the sharded golden run: got %#x, want %#x", got, goldenFig8Tasks)
	}
	if prof.Samples(sim.PhaseDispatch) == 0 {
		t.Error("sharded coordinator reported no dispatch samples")
	}
	if res.LookaheadEff < 1 {
		t.Errorf("lookahead efficiency %g < 1", res.LookaheadEff)
	}
	if len(res.ShardStats) != 1 || res.ShardStats[0].Events == 0 {
		t.Errorf("per-shard records missing or empty: %+v", res.ShardStats)
	}
}

// TestShardedTelemetryNonZero is the acceptance check: a shards≥2 campaign
// must measure non-zero per-shard event counts, non-zero barrier stall,
// and a ≥1 lookahead efficiency, and the merged snapshot must expose them
// through the exposition writer.
func TestShardedTelemetryNonZero(t *testing.T) {
	prof := obs.NewSelfProfiler()
	res := RunShardedImpeccable(ShardedImpeccableConfig{
		Nodes:    128,
		Pilots:   4,
		Shards:   4,
		Backend:  spec.BackendFlux,
		Seed:     7,
		MaxIters: 1,
		Profile:  prof,
	})
	if res.Tasks == 0 {
		t.Fatal("no tasks ran")
	}
	if res.BarrierStallNs <= 0 {
		t.Error("parallel windows measured no barrier stall")
	}
	if res.LookaheadEff < 1 {
		t.Errorf("lookahead efficiency %g < 1", res.LookaheadEff)
	}
	if len(res.ShardStats) != 4 {
		t.Fatalf("got %d shard records, want 4", len(res.ShardStats))
	}
	var events uint64
	for _, r := range res.ShardStats {
		events += r.Events
	}
	if events == 0 {
		t.Error("per-shard event counts are all zero")
	}
	if prof.Samples(sim.PhaseBarrier) == 0 {
		t.Error("no barrier-stall phase samples despite parallel shards")
	}
	if prof.Samples(sim.PhaseExchange) == 0 {
		t.Error("no exchange phase samples")
	}

	table := obs.RenderShardTable(res.ShardStats)
	if !strings.Contains(table, "lookahead_efficiency=") {
		t.Errorf("shard table lacks the efficiency footer:\n%s", table)
	}
}

// TestShardedSnapshotExposition: the merged multi-shard snapshot renders
// per-shard families with shard labels through the Prometheus writer.
func TestShardedSnapshotExposition(t *testing.T) {
	ss := core.NewShardedSession(core.ShardedConfig{Seed: 99, Domains: 3, Shards: 2})
	for i := 0; i < 2; i++ {
		pilot, err := ss.SubmitPilot(i+1, spec.PilotDescription{
			UID: "pilot.000" + string(rune('0'+i)), Nodes: 16, SMT: 1, Partitions: FluxPartitions(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		tm := ss.TaskManager(pilot)
		tm.Submit(workload.Null(200))
		defer func() {
			if err := tm.Wait(); err != nil {
				t.Fatal(err)
			}
		}()
	}
	ss.Run()
	snap := ss.MetricsSnapshot()
	if snap.Counters["shard0.events"] == 0 || snap.Counters["shard1.events"] == 0 {
		t.Errorf("per-shard event counters are zero: shard0=%g shard1=%g",
			snap.Counters["shard0.events"], snap.Counters["shard1.events"])
	}
	if snap.Counters["sharded.cross_events"] == 0 {
		t.Error("no cross-partition traffic recorded")
	}
	exp := obs.ExpositionString(snap)
	for _, want := range []string{
		`rp_shard_events_total{shard="0"}`,
		`rp_shard_events_total{shard="1"}`,
		`rp_sharded_windows_total`,
		`rp_sim_events_total`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if _, err := obs.ParseExposition(strings.NewReader(exp)); err != nil {
		t.Errorf("merged snapshot exposition does not parse: %v", err)
	}
}

// TestReportShardedMeasuredColumns: the speedup scorecard must carry the
// MEASURED stall and efficiency columns, not structural placeholders.
func TestReportShardedMeasuredColumns(t *testing.T) {
	rows := ReportSharded(64, 2, 2, 11, 1, nil)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (shards 1 and 2)", len(rows))
	}
	for _, row := range rows {
		if row.Efficiency < 1 {
			t.Errorf("shards=%d efficiency %g < 1", row.Shards, row.Efficiency)
		}
		if row.Windows == 0 || row.Tasks == 0 {
			t.Errorf("shards=%d row is empty: %+v", row.Shards, row)
		}
	}
	if rows[0].Shards != 1 || rows[1].Shards != 2 {
		t.Errorf("unexpected shard progression: %+v", rows)
	}
	if rows[0].Stall != 0 {
		t.Errorf("inline shards=1 run reports %v barrier stall", rows[0].Stall)
	}
	if rows[1].Stall <= 0 {
		t.Errorf("shards=2 run measured no barrier stall")
	}
}
