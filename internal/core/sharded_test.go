package core_test

import (
	"testing"

	"rpgo/internal/core"
	"rpgo/internal/spec"
)

// TestShardedSnapshotHighWaterIsMax: the merged snapshot of a sharded
// session reports each *_highwater key as the largest pilot domain's mark,
// not the sum of them, while plain counters still add up across domains.
func TestShardedSnapshotHighWaterIsMax(t *testing.T) {
	const domains, tasks = 3, 600
	ss := core.NewShardedSession(core.ShardedConfig{Seed: 5, Domains: domains, Shards: 2})
	for d := 1; d < domains; d++ {
		p, err := ss.SubmitPilot(d, spec.PilotDescription{
			Nodes:      2,
			Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		tds := make([]*spec.TaskDescription, tasks)
		for i := range tds {
			tds[i] = &spec.TaskDescription{Kind: spec.Executable, CoresPerRank: 1, Ranks: 1}
		}
		ss.TaskManager(p).Submit(tds)
	}
	ss.Run()

	merged := ss.MetricsSnapshot()
	for _, k := range []string{"launch.queue_highwater", "slurm.srun_highwater"} {
		var hi float64
		busy := 0
		for d := 0; d < domains; d++ {
			v := ss.Domain(d).MetricsSnapshot().Counters[k]
			hi = max(hi, v)
			if v > 0 {
				busy++
			}
		}
		if busy < 2 {
			t.Fatalf("%s is non-zero in %d domains; the test needs at least 2", k, busy)
		}
		if got := merged.Counters[k]; got != hi {
			t.Errorf("merged %s = %g, want the largest domain's %g", k, got, hi)
		}
	}
	var sum float64
	for d := 0; d < domains; d++ {
		sum += ss.Domain(d).MetricsSnapshot().Counters["agent.dispatches"]
	}
	if got := merged.Counters["agent.dispatches"]; got != sum || got != (domains-1)*tasks {
		t.Errorf("merged agent.dispatches = %g, want the domains' sum %g = %d", got, sum, (domains-1)*tasks)
	}
}
