// Sharded experiment runners: the million-task throughput campaign on a
// core.ShardedSession, and the speedup scorecard rpbench prints for the
// multi-pilot IMPECCABLE campaign.
package experiments

import (
	"fmt"
	"time"

	"rpgo/internal/agent"
	"rpgo/internal/core"
	"rpgo/internal/obs"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/workload"
)

// ShardedThroughputConfig parameterizes the million-task campaign: null
// tasks fed in bounded waves through every pilot, folded per domain so
// memory stays flat at any scale.
type ShardedThroughputConfig struct {
	// Nodes is the total node count, split over the pilots.
	Nodes int
	// Pilots is at least 1; two or more partition the run as in
	// RunImpeccable.
	Pilots int
	// Shards is the shard engine count.
	Shards int
	// Tasks is the total task count, split over the pilots.
	Tasks int
	// Wave bounds each pilot's in-flight task count (0 → 16384): the
	// client submits the next wave as completions stream back, so peak
	// memory is O(Wave·Pilots) instead of O(Tasks).
	Wave int
	Seed uint64
}

// ShardedThroughputResult aggregates the per-domain folds.
type ShardedThroughputResult struct {
	Tasks  int
	Failed int
	// Makespan is the longest per-domain submit→final span; AvgTput is
	// total ran tasks over the merged execution window.
	Makespan sim.Duration
	AvgTput  float64
	Shards   int
}

// RunShardedThroughput executes the wave-fed campaign.
func RunShardedThroughput(cfg ShardedThroughputConfig) ShardedThroughputResult {
	if cfg.Wave <= 0 {
		cfg.Wave = 16384
	}
	domains := 1
	if cfg.Pilots > 1 {
		domains = cfg.Pilots + 1
	}
	folds := make([]*obs.Fold, domains)
	ss := core.NewShardedSession(core.ShardedConfig{
		Seed:    cfg.Seed,
		Domains: domains,
		Shards:  cfg.Shards,
		// Every domain folds — including the client, whose non-retaining
		// fold switches its profiler to streaming mode (bounded memory).
		Sink: func(d int) profiler.TraceSink {
			folds[d] = obs.NewFold()
			return folds[d]
		},
	})
	split := []int{cfg.Nodes}
	taskSplit := []int{cfg.Tasks}
	if cfg.Pilots > 1 {
		split = platform.SplitNodes(cfg.Nodes, cfg.Pilots)
		taskSplit = platform.SplitNodes(cfg.Tasks, cfg.Pilots)
	}
	tms := make([]*core.TaskManager, cfg.Pilots)
	for i := 0; i < cfg.Pilots; i++ {
		pd := spec.PilotDescription{Nodes: split[i], SMT: 1, Partitions: FluxPartitions(1)}
		domain := 0
		if cfg.Pilots > 1 {
			domain = i + 1
			pd.UID = fmt.Sprintf("pilot.%04d", i)
		}
		pilot, err := ss.SubmitPilot(domain, pd)
		must("sharded throughput", err)
		tm := ss.TaskManager(pilot)
		total := taskSplit[i]
		submitted, inflight := 0, 0
		wave := cfg.Wave
		feed := func() {
			for inflight < 2*wave && submitted < total {
				n := wave
				if submitted+n > total {
					n = total - submitted
				}
				tm.Submit(workload.Null(n))
				submitted += n
				inflight += n
			}
		}
		tm.OnComplete = func(*agent.Task) {
			inflight--
			if inflight <= wave/2 {
				feed()
			}
		}
		feed()
		tms[i] = tm
	}
	for _, tm := range tms {
		must("sharded throughput", tm.Wait())
	}

	res := ShardedThroughputResult{Shards: ss.Eng.Shards()}
	var first, last sim.Time = -1, -1
	ran := 0
	for _, f := range folds {
		res.Tasks += f.Tasks()
		res.Failed += f.Failed()
		ran += f.Ran()
		if m := f.Makespan(); m > res.Makespan {
			res.Makespan = m
		}
		s, e := f.ExecWindow()
		if e > s {
			if first < 0 || s < first {
				first = s
			}
			if e > last {
				last = e
			}
		}
	}
	if last > first && first >= 0 {
		res.AvgTput = float64(ran) / last.Sub(first).Seconds()
	}
	return res
}

// ShardSpeedup is one row of the rpbench speedup-vs-shards scorecard.
type ShardSpeedup struct {
	Shards  int
	Wall    time.Duration
	Speedup float64
	Tasks   int
	Windows uint64
	// Efficiency is the measured lookahead efficiency of the run.
	Efficiency float64
}

// ReportSharded runs the multi-pilot campaign at 1, 2, 4, … shard engines,
// up to one per pilot domain, and reports wall-clock speedup relative to
// the 1-shard run. The simulated traces are identical at every shard
// count, so the rows differ only in wall time. A non-nil mon is attached
// to every run so a scraper watching /metrics sees each shard count in
// turn.
func ReportSharded(nodes, pilots int, seed uint64, maxIters int, mon *obs.Monitor) []ShardSpeedup {
	var rows []ShardSpeedup
	base := time.Duration(0)
	for s := 1; s <= pilots; s *= 2 {
		t0 := time.Now()
		res := RunImpeccable(ImpeccableConfig{
			Nodes:    nodes,
			Pilots:   pilots,
			Shards:   s,
			Backend:  spec.BackendFlux,
			Seed:     seed,
			MaxIters: maxIters,
			Monitor:  mon,
		})
		wall := time.Since(t0)
		if s == 1 {
			base = wall
		}
		row := ShardSpeedup{
			Shards: res.Shards, Wall: wall, Tasks: res.Tasks, Windows: res.Windows,
			Efficiency: res.LookaheadEff,
		}
		if wall > 0 {
			row.Speedup = float64(base) / float64(wall)
		}
		rows = append(rows, row)
	}
	return rows
}
