// Sharded experiment runners: the multi-pilot IMPECCABLE campaign and the
// million-task throughput campaign on a core.ShardedSession, plus the
// speedup scorecard rpbench prints.
package experiments

import (
	"fmt"
	"runtime"
	"time"

	"rpgo/internal/agent"
	"rpgo/internal/campaign"
	"rpgo/internal/core"
	"rpgo/internal/metrics"
	"rpgo/internal/model"
	"rpgo/internal/obs"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/workload"
)

// DefaultShards derives the default shard count of rpsim, rpbench and the
// root sharded-campaign benchmarks from the machine: one worker per core,
// capped so coordination overhead cannot dominate on very wide hosts.
func DefaultShards() int {
	s := runtime.NumCPU()
	if s < 1 {
		s = 1
	}
	if s > 16 {
		s = 16
	}
	return s
}

// ShardedImpeccableConfig parameterizes a multi-pilot campaign run.
type ShardedImpeccableConfig struct {
	// Nodes is the TOTAL node count, split evenly over the pilots.
	Nodes int
	// Pilots is the pilot count. Pilots=1 colocates the single pilot with
	// the client in one domain — exactly a plain RunImpeccable session.
	// Pilots≥2 places each pilot in its own partition domain.
	Pilots int
	// Shards is the worker count for the sharded engine.
	Shards  int
	Backend spec.Backend
	Seed    uint64
	// Params overrides model constants; nil = default.
	Params *model.Params
	// MaxIters caps pipeline iterations (tests); zero = full campaign.
	MaxIters int
	// Sink builds per-domain trace sinks (may be nil).
	Sink func(domain int) profiler.TraceSink
	// Profile, when set, self-profiles the run's wall-clock phases across
	// all domains; nil leaves every hook unset.
	Profile *obs.SelfProfiler
	// Monitor, when set, is attached to the sharded coordinator's window
	// barrier, fed the merged live snapshot and campaign progress, and
	// published once at the end of the run.
	Monitor *obs.Monitor
}

// ShardedImpeccableResult captures one sharded campaign run.
type ShardedImpeccableResult struct {
	Config   ShardedImpeccableConfig
	Tasks    int
	Failed   int
	Makespan sim.Duration
	CPUUtil  float64
	// Traces are the merged per-task records in submission order (empty
	// in streaming mode).
	Traces          []*profiler.TaskTrace
	PeakConcurrency float64
	// Windows / CrossEvents / Shards report the sharded engine's work.
	Windows     uint64
	CrossEvents uint64
	Shards      int
	// BarrierStallNs is total wall-clock time shards spent waiting at
	// window barriers; LookaheadEff is the measured sim-time advanced per
	// barrier relative to the lookahead (≥1; higher = fewer barriers per
	// unit of simulated time).
	BarrierStallNs int64
	LookaheadEff   float64
	// ShardStats are the final per-shard window/traffic counters.
	ShardStats []obs.ShardRecord
}

// RunShardedImpeccable executes one or more IMPECCABLE campaigns — one per
// pilot, each sized to its node share — on a sharded session and merges
// the results. With Pilots=1 and Shards=1 the run is event-for-event
// identical to RunImpeccable (the golden-equivalence test pins this).
func RunShardedImpeccable(cfg ShardedImpeccableConfig) ShardedImpeccableResult {
	if cfg.Pilots < 1 {
		cfg.Pilots = 1
	}
	domains := 1
	if cfg.Pilots > 1 {
		domains = cfg.Pilots + 1
	}
	ss := core.NewShardedSession(core.ShardedConfig{
		Seed:    cfg.Seed,
		Params:  cfg.Params,
		Domains: domains,
		Shards:  cfg.Shards,
		Sink:    cfg.Sink,
		Profile: cfg.Profile,
	})
	if cfg.Monitor != nil {
		cfg.Monitor.AttachSharded(ss.Eng)
		cfg.Monitor.SetSource(ss.LiveSnapshot)
	}
	var parts []spec.PartitionConfig
	switch cfg.Backend {
	case spec.BackendSrun:
		parts = nil
	case spec.BackendFlux:
		parts = FluxPartitions(1)
	default:
		panic("experiments: impeccable backend must be srun or flux")
	}
	split := []int{cfg.Nodes}
	if cfg.Pilots > 1 {
		split = platform.SplitNodes(cfg.Nodes, cfg.Pilots)
	}
	tms := make([]*core.TaskManager, cfg.Pilots)
	camps := make([]*campaign.Campaign, cfg.Pilots)
	for i := 0; i < cfg.Pilots; i++ {
		pd := spec.PilotDescription{Nodes: split[i], SMT: 1, Partitions: parts}
		domain := 0
		ccfg := campaign.Config{Nodes: split[i], MaxIters: cfg.MaxIters, MaxRetries: 2}
		if cfg.Pilots > 1 {
			domain = i + 1
			// Distinct pilot UIDs (each domain numbers its own pilots from
			// zero) and decorrelated adaptive-sizing streams per campaign.
			pd.UID = fmt.Sprintf("pilot.%04d", i)
			ccfg.SizingStream = fmt.Sprintf("campaign.adaptive.p%02d", i)
		}
		pilot, err := ss.SubmitPilot(domain, pd)
		if err != nil {
			panic(fmt.Sprintf("experiments: sharded impeccable: %v", err))
		}
		tm := ss.TaskManager(pilot)
		camp := campaign.New(ccfg, ss.Client(), tm)
		if err := camp.Start(); err != nil {
			panic(fmt.Sprintf("experiments: sharded impeccable: %v", err))
		}
		tms[i] = tm
		camps[i] = camp
	}
	if cfg.Monitor != nil {
		// The heartbeat fires on the coordinator after the window barrier,
		// when every domain is quiescent, so summing live task-manager
		// counters here is safe.
		cfg.Monitor.SetProgress(func() (int, int) {
			done, total := 0, 0
			for _, tm := range tms {
				done += tm.FinalCount()
				total += tm.SubmittedCount()
			}
			return done, total
		})
	}
	// The first Wait drives the sharded engine to global quiescence; the
	// rest only verify their own completion counts.
	for _, tm := range tms {
		if err := tm.Wait(); err != nil {
			panic(fmt.Sprintf("experiments: sharded impeccable: %v", err))
		}
	}

	tasks := ss.Tasks()
	start, end := execWindow(tasks)
	res := ShardedImpeccableResult{
		Config:         cfg,
		Tasks:          len(tasks),
		Makespan:       metrics.Makespan(tasks),
		CPUUtil:        metrics.Utilization(tasks, cfg.Nodes*CoresPerNode, start, end),
		Traces:         tasks,
		Windows:        ss.Eng.Windows(),
		CrossEvents:    ss.Eng.CrossEvents(),
		Shards:         ss.Eng.Shards(),
		BarrierStallNs: ss.Eng.BarrierStallNs(),
		LookaheadEff:   ss.Eng.LookaheadEfficiency(),
		ShardStats:     obs.ShardRecords(ss.Eng),
	}
	cfg.Monitor.Publish()
	for _, camp := range camps {
		res.Failed += camp.TotalFailed()
	}
	if len(tasks) > 0 {
		conc := metrics.ConcurrencySeries(tasks, 400)
		res.PeakConcurrency = conc.Max()
	}
	return res
}

// ShardedThroughputConfig parameterizes the million-task campaign: null
// tasks fed in bounded waves through every pilot, folded per domain so
// memory stays flat at any scale.
type ShardedThroughputConfig struct {
	// Nodes is the total node count, split over the pilots.
	Nodes int
	// Pilots ≥ 1; ≥2 partitions the run as in RunShardedImpeccable.
	Pilots int
	// Shards is the sharded-engine worker count.
	Shards int
	// Tasks is the total task count, split over the pilots.
	Tasks int
	// Wave bounds each pilot's in-flight task count (0 → 16384): the
	// client submits the next wave as completions stream back, so peak
	// memory is O(Wave·Pilots) instead of O(Tasks).
	Wave int
	Seed uint64
	// Params overrides model constants; nil = default.
	Params *model.Params
}

// ShardedThroughputResult aggregates the per-domain folds.
type ShardedThroughputResult struct {
	Config ShardedThroughputConfig
	Tasks  int
	Failed int
	// Makespan is the longest per-domain submit→final span; AvgTput is
	// total ran tasks over the merged execution window.
	Makespan    sim.Duration
	AvgTput     float64
	Windows     uint64
	CrossEvents uint64
	Shards      int
}

// RunShardedThroughput executes the wave-fed campaign.
func RunShardedThroughput(cfg ShardedThroughputConfig) ShardedThroughputResult {
	if cfg.Pilots < 1 {
		cfg.Pilots = 1
	}
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
		Params:  cfg.Params,
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
		if err != nil {
			panic(fmt.Sprintf("experiments: sharded throughput: %v", err))
		}
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
		if err := tm.Wait(); err != nil {
			panic(fmt.Sprintf("experiments: sharded throughput: %v", err))
		}
	}

	res := ShardedThroughputResult{
		Config:      cfg,
		Windows:     ss.Eng.Windows(),
		CrossEvents: ss.Eng.CrossEvents(),
		Shards:      ss.Eng.Shards(),
	}
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
	// Stall is the total wall-clock barrier wait summed over shards;
	// Efficiency is the measured lookahead efficiency of the run.
	Stall      time.Duration
	Efficiency float64
}

// ReportSharded runs the multi-pilot campaign at 1, 2, 4, … shards up to
// maxShards and reports real wall-clock speedup relative to the 1-shard
// run. The simulated traces are identical at every shard count, so the
// rows differ only in wall time (and in the measured barrier-stall and
// lookahead-efficiency columns). A non-nil mon is attached to every run so
// a scraper watching /metrics sees each shard count in turn.
func ReportSharded(nodes, pilots, maxShards int, seed uint64, maxIters int, mon *obs.Monitor) []ShardSpeedup {
	if maxShards < 1 {
		maxShards = 1
	}
	var rows []ShardSpeedup
	base := time.Duration(0)
	for s := 1; s <= maxShards; s *= 2 {
		t0 := time.Now()
		res := RunShardedImpeccable(ShardedImpeccableConfig{
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
			Stall:      time.Duration(res.BarrierStallNs),
			Efficiency: res.LookaheadEff,
		}
		if wall > 0 {
			row.Speedup = float64(base) / float64(wall)
		}
		rows = append(rows, row)
	}
	return rows
}
