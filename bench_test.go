// Package rpgo_test is the benchmark harness: one benchmark per table and
// figure of the paper's evaluation (Table 1, Figs 4-8, headline claims),
// plus micro-benchmarks of the simulation substrate and ablations of the
// design choices called out in DESIGN.md.
//
// Benchmarks report the paper's metrics through b.ReportMetric: tasks/s
// (throughput), util% (resource utilization), and makespan_s. Absolute
// wall-clock of the benchmark itself measures only the simulator. Scales
// default to ≤256 nodes so `go test -bench=.` completes in minutes; the
// cmd/rpbench tool runs the full sweeps.
package rpgo_test

import (
	"testing"

	"rpgo/internal/analytics"
	"rpgo/internal/core"
	"rpgo/internal/experiments"
	"rpgo/internal/launch"
	"rpgo/internal/metrics"
	"rpgo/internal/model"
	"rpgo/internal/obs"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/workload"
)

// --- Table 1: the experiment matrix itself (configuration build cost) ---

func BenchmarkTable1Matrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := []experiments.ThroughputConfig{
			experiments.SrunCell(4, experiments.Null, 1, 1),
			experiments.Flux1Cell(16, experiments.Null, 1, 1),
			experiments.FluxNCell(16, 4, experiments.Null, 1, 1),
			experiments.DragonCell(16, experiments.Null, 1, 1),
			experiments.HybridCell(16, 4, 0, 1, 1),
		}
		for _, c := range cells {
			r := experiments.RunThroughput(c)
			b.ReportMetric(r.AvgTput, c.Name+"_tasks/s")
		}
	}
}

// --- Fig 4: srun utilization ceiling ---

func BenchmarkFig4SrunUtilization(b *testing.B) {
	var util, makespan float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunThroughput(experiments.SrunCell(4, experiments.Dummy, uint64(i), 1))
		util = r.MeanUtil * 100
		makespan = r.MeanMakespan.Seconds()
	}
	b.ReportMetric(util, "util%")
	b.ReportMetric(makespan, "makespan_s")
}

// --- Fig 5: throughput per runtime system ---

func BenchmarkFig5aSrun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{1, 2, 4, 8} {
			r := experiments.RunThroughput(experiments.SrunCell(n, experiments.Null, 1, 1))
			if n == 1 || n == 4 {
				b.ReportMetric(r.AvgTput, nodesLabel(n))
			}
		}
	}
}

func BenchmarkFig5bFlux1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{1, 4, 16, 64} {
			r := experiments.RunThroughput(experiments.Flux1Cell(n, experiments.Null, 2, 1))
			b.ReportMetric(r.AvgTput, nodesLabel(n))
		}
	}
}

func BenchmarkFig5bFlux1Large(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunThroughput(experiments.Flux1Cell(256, experiments.Null, 2, 1))
		b.ReportMetric(r.AvgTput, "tasks/s")
		b.ReportMetric(r.PeakWindow, "peak1s_tasks/s")
	}
}

func BenchmarkFig5cDragon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{4, 16, 64} {
			r := experiments.RunThroughput(experiments.DragonCell(n, experiments.Null, 3, 1))
			b.ReportMetric(r.AvgTput, nodesLabel(n))
		}
	}
}

func BenchmarkFig5dFluxDragon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{4, 16, 64} {
			k := n / 2
			if k > 8 {
				k = 8
			}
			r := experiments.RunThroughput(experiments.HybridCell(n, k, 0, 4, 1))
			b.ReportMetric(r.AvgTput, nodesLabel(n))
		}
	}
}

// --- Fig 6: flux_n instance sweep ---

func BenchmarkFig6FluxN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cell := range []struct{ n, k int }{{4, 1}, {4, 4}, {16, 16}, {64, 16}} {
			r := experiments.RunThroughput(experiments.FluxNCell(cell.n, cell.k, experiments.Null, 5, 1))
			b.ReportMetric(r.AvgTput, nodesLabel(cell.n)+"_x"+itoa(cell.k))
		}
	}
}

// --- Fig 7: instance bootstrap overheads ---

func BenchmarkFig7Overheads(b *testing.B) {
	var flux64, dragon64 float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.RunOverheads([]int{1, 64}, uint64(i), 2) {
			if r.Nodes != 64 {
				continue
			}
			if r.Backend == spec.BackendFlux {
				flux64 = r.Mean
			} else {
				dragon64 = r.Mean
			}
		}
	}
	b.ReportMetric(flux64, "flux_bootstrap_s")
	b.ReportMetric(dragon64, "dragon_bootstrap_s")
}

// --- Fig 8: IMPECCABLE campaign ---

func BenchmarkFig8ImpeccableSrun256(b *testing.B) {
	benchImpeccable(b, 256, spec.BackendSrun)
}

func BenchmarkFig8ImpeccableFlux256(b *testing.B) {
	benchImpeccable(b, 256, spec.BackendFlux)
}

func BenchmarkFig8ImpeccableSrun1024(b *testing.B) {
	benchImpeccable(b, 1024, spec.BackendSrun)
}

func BenchmarkFig8ImpeccableFlux1024(b *testing.B) {
	benchImpeccable(b, 1024, spec.BackendFlux)
}

// BenchmarkFig8ImpeccableFlux4096 runs the campaign at 4× the paper's
// largest scale — the O(10k)-task regime the allocation-lean engine,
// indexed placer, and ring queues exist for. Before the rewrite this cell
// was minutes of wall clock; it must stay in the seconds range.
func BenchmarkFig8ImpeccableFlux4096(b *testing.B) {
	benchImpeccable(b, 4096, spec.BackendFlux)
}

func benchImpeccable(b *testing.B, nodes int, backend spec.Backend) {
	var res experiments.ImpeccableResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunImpeccable(experiments.ImpeccableConfig{
			Nodes: nodes, Backend: backend, Seed: uint64(i + 1),
		})
	}
	b.ReportMetric(res.Makespan.Seconds(), "makespan_s")
	b.ReportMetric(res.CPUUtil*100, "cpu_util%")
	b.ReportMetric(res.PeakConcurrency, "peak_concurrency")
	b.ReportMetric(float64(res.Tasks), "tasks")
}

// BenchmarkFig8Analysis times the post-run analysis the impeccable_* bench
// workloads run after every Fig 8 campaign: the concurrency and start-rate
// series, CPU and GPU utilization, makespan and blame. The traces of one
// 1,024-node campaign per executor are built once, outside the timer.
func BenchmarkFig8Analysis(b *testing.B) {
	const nodes = 1024
	for _, backend := range []spec.Backend{spec.BackendFlux, spec.BackendSrun} {
		b.Run(backend.String(), func(b *testing.B) {
			traces := experiments.RunImpeccable(experiments.ImpeccableConfig{
				Nodes: nodes, Backend: backend, Seed: 1,
			}).Traces
			var start, end sim.Time = -1, -1
			for _, tr := range traces {
				if tr.Ran() {
					if start < 0 || tr.Start < start {
						start = tr.Start
					}
					end = max(end, tr.End)
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				metrics.ConcurrencySeries(traces, 400)
				metrics.RateSeries(traces, 30*sim.Second, 400)
				metrics.Utilization(traces, nodes*experiments.CoresPerNode, start, end)
				metrics.UtilizationGPU(traces, nodes*8, start, end)
				metrics.Makespan(traces)
				analytics.BlameFromTraces(traces)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(traces)), "ns/task")
		})
	}
}

// BenchmarkFig8WithFailures runs the Fig 8 campaign under node churn
// (per-node MTBF of one simulated day on 256 nodes: dozens of failures
// across the ~6 h campaign) with the fault injector, eviction/relocation,
// and blame attribution all in the measured path.
func BenchmarkFig8WithFailures(b *testing.B) {
	params := model.Default()
	params.Fault = model.FaultParams{NodeMTBF: 86400, NodeDowntime: 600}
	var res experiments.ImpeccableResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunImpeccable(experiments.ImpeccableConfig{
			Nodes: 256, Backend: spec.BackendFlux, Seed: uint64(i + 1), Params: &params,
		})
	}
	rep := analytics.BlameFromTraces(res.Traces)
	b.ReportMetric(res.Makespan.Seconds(), "makespan_s")
	b.ReportMetric(float64(res.Tasks), "tasks")
	b.ReportMetric(float64(res.Failed), "failed")
	b.ReportMetric(rep.Blame[analytics.BlameFailure].Seconds(), "failure_s")
}

// BenchmarkFig8ImpeccableFlux65536 runs the O(10k)-node regime the sharded
// engine exists for: 16 IMPECCABLE campaigns on 16 pilots of 4096 nodes
// each (65536 total), one partition domain per pilot, on 2 worker shards.
// The simulated outcome is byte-identical to the Baseline variant below;
// only the wall clock differs, so the pair measures 1 vs 2 shards on any
// host.
func BenchmarkFig8ImpeccableFlux65536(b *testing.B) {
	benchShardedImpeccable(b, 2)
}

// BenchmarkFig8ImpeccableFlux65536Baseline is the same campaign on a
// single shard — the default, and the serial reference the rpbench
// scorecard measures against.
func BenchmarkFig8ImpeccableFlux65536Baseline(b *testing.B) {
	benchShardedImpeccable(b, 1)
}

func benchShardedImpeccable(b *testing.B, shards int) {
	var res experiments.ImpeccableResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunImpeccable(experiments.ImpeccableConfig{
			Nodes: 65536, Pilots: 16, Shards: shards,
			Backend: spec.BackendFlux, Seed: uint64(i + 1),
		})
	}
	b.ReportMetric(res.Makespan.Seconds(), "makespan_s")
	b.ReportMetric(res.CPUUtil*100, "cpu_util%")
	b.ReportMetric(float64(res.Tasks), "tasks")
	b.ReportMetric(float64(res.Shards), "shards")
	b.ReportMetric(float64(res.Windows), "windows")
	b.ReportMetric(res.LookaheadEff, "lookahead_eff")
}

// BenchmarkMillionTaskCampaign pushes 2^20 null tasks through 16 pilot
// domains in bounded waves with per-domain fold sinks — the end-to-end
// million-task scale RHAPSODY targets, with flat memory, on the default
// single shard.
func BenchmarkMillionTaskCampaign(b *testing.B) {
	var res experiments.ShardedThroughputResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunShardedThroughput(experiments.ShardedThroughputConfig{
			Nodes: 1024, Pilots: 16, Shards: 1,
			Tasks: 1 << 20, Seed: uint64(i + 1),
		})
	}
	if res.Tasks != 1<<20 {
		b.Fatalf("campaign folded %d tasks, want %d", res.Tasks, 1<<20)
	}
	b.ReportMetric(res.AvgTput, "tasks/s")
	b.ReportMetric(res.Makespan.Seconds(), "makespan_s")
	b.ReportMetric(float64(res.Shards), "shards")
}

// --- Headline claims (abstract / Sec 6) ---

func BenchmarkHeadlineClaims(b *testing.B) {
	var hybridPeak, fluxNMax float64
	for i := 0; i < b.N; i++ {
		h := experiments.RunThroughput(experiments.HybridCell(64, 8, 0, 6, 2))
		hybridPeak = h.PeakWindow
		fn := experiments.RunThroughput(experiments.FluxNCell(64, 16, experiments.Null, 7, 2))
		fluxNMax = fn.MaxTput
	}
	b.ReportMetric(hybridPeak, "hybrid_peak_tasks/s")
	b.ReportMetric(fluxNMax, "fluxn_max_tasks/s")
}

// --- Inference-service subsystem (DESIGN.md §3) ---

// BenchmarkServiceSweepCell runs one cell of the request-rate × replica
// characterization: p95 request latency of a 2-replica endpoint under a
// 40 req/s open-loop Poisson client.
func BenchmarkServiceSweepCell(b *testing.B) {
	var p95, occ float64
	for i := 0; i < b.N; i++ {
		res := experiments.RunServiceSweep(experiments.ServiceSweepConfig{
			Nodes: 2, Rates: []float64{40}, Replicas: []int{2},
			Duration: 30 * sim.Second, Seed: uint64(i + 1),
		})
		p95 = res.Cells[0].Latency.P95
		occ = res.Cells[0].Occupancy
	}
	b.ReportMetric(p95, "p95_s")
	b.ReportMetric(occ, "batch_occupancy")
}

// BenchmarkServiceAutoscale measures the burst response of the
// autoscaled endpoint (peak replicas reached, requests served).
func BenchmarkServiceAutoscale(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		res := experiments.RunAutoscaleDemo(2, 10, uint64(i+1))
		peak = float64(res.PeakReplicas)
	}
	b.ReportMetric(peak, "peak_replicas")
}

// --- Data-staging subsystem (DESIGN.md §4) ---

// BenchmarkStagingHandoff runs the producer→consumer handoff campaign
// under both placement policies and reports the makespans side by side —
// the headline number of the data subsystem.
func BenchmarkStagingHandoff(b *testing.B) {
	var pack, aware float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.HandoffConfig{
			Nodes: 4, Stages: 3, Width: 448, Bytes: 2 << 30,
			TaskSeconds: 2, Seed: uint64(i + 1),
		}
		cfg.Policy = spec.PlacePack
		pack = experiments.RunHandoff(cfg).Makespan.Seconds()
		cfg.Policy = spec.PlaceDataAware
		aware = experiments.RunHandoff(cfg).Makespan.Seconds()
	}
	b.ReportMetric(pack, "makespan_s_pack")
	b.ReportMetric(aware, "makespan_s_data_aware")
}

// BenchmarkStagingSweepCell runs one cell of the data size × placement
// characterization and reports bytes moved and the locality hit rate.
func BenchmarkStagingSweepCell(b *testing.B) {
	var moved, hit float64
	for i := 0; i < b.N; i++ {
		cells := experiments.RunStagingSweep(experiments.StagingSweepConfig{
			Nodes: 4, Shards: 16, TasksPerShard: 21,
			ShardBytes:  []int64{1 << 30},
			Policies:    []spec.PlacementPolicy{spec.PlaceDataAware},
			TaskSeconds: 2, Seed: uint64(i + 1), Reps: 1,
		})
		moved = cells[0].BytesMoved / float64(1<<30)
		hit = cells[0].HitRate
	}
	b.ReportMetric(moved, "GB_moved")
	b.ReportMetric(hit, "locality_hit_rate")
}

// BenchmarkCheckpointPressure measures the synchronized write burst.
func BenchmarkCheckpointPressure(b *testing.B) {
	var occ, stageout float64
	for i := 0; i < b.N; i++ {
		res := experiments.RunCheckpointPressure(experiments.CheckpointConfig{
			Nodes: 4, Writers: 224, Waves: 2, CkptBytes: 2 << 30,
			TaskSeconds: 5, Seed: uint64(i + 1),
		})
		occ = res.SharedOccupancy
		stageout = res.StageOutPerTask.Seconds()
	}
	b.ReportMetric(occ, "pfs_occupancy")
	b.ReportMetric(stageout, "stageout_s/task")
}

// --- Ablations: the design choices DESIGN.md calls out ---

// BenchmarkAblationNoCeiling removes Frontier's 112-srun cap: utilization
// on the Fig 4 workload must rise from ~50% toward ~100%.
func BenchmarkAblationNoCeiling(b *testing.B) {
	params := model.Default()
	params.Srun.Ceiling = 1 << 20
	var util float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.SrunCell(4, experiments.Dummy, 1, 1)
		cfg.Params = &params
		r := experiments.RunThroughput(cfg)
		util = r.MeanUtil * 100
	}
	b.ReportMetric(util, "util%_without_ceiling")
}

// BenchmarkAblationExecutorSerialization widens RP's per-executor
// serialization stage, isolating its contribution to the hybrid peak.
func BenchmarkAblationExecutorSerialization(b *testing.B) {
	params := model.Default()
	params.RP.ExecutorSubmitOverhead /= 4
	var peak float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.HybridCell(64, 8, 0, 6, 1)
		cfg.Params = &params
		r := experiments.RunThroughput(cfg)
		peak = r.PeakWindow
	}
	b.ReportMetric(peak, "hybrid_peak_tasks/s_4x_executor")
}

// BenchmarkAblationEta removes the multi-instance coordination penalty.
func BenchmarkAblationEta(b *testing.B) {
	params := model.Default()
	params.Flux.EtaC = 0
	var avg float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.FluxNCell(16, 16, experiments.Null, 5, 1)
		cfg.Params = &params
		r := experiments.RunThroughput(cfg)
		avg = r.AvgTput
	}
	b.ReportMetric(avg, "fluxn_16x16_tasks/s_no_eta")
}

// --- Micro-benchmarks of the simulation substrate ---

func BenchmarkEngineScheduleRun(b *testing.B) {
	eng := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(sim.Duration(i%1000)*sim.Microsecond, func() {})
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkEngineImmediate runs a chain of same-instant events, each
// scheduling the next through ImmediatelyCall, over a heap holding 100
// future events, about hybrid_null's heap high-water: one op is one
// zero-delay hop at that depth. BenchmarkEngineScheduleRun is almost all
// non-zero delays.
func BenchmarkEngineImmediate(b *testing.B) {
	eng := sim.NewEngine()
	for i := range 100 {
		eng.After(sim.Hour+sim.Duration(i), func() {})
	}
	left := b.N
	var hop func(any)
	hop = func(any) {
		if left--; left > 0 {
			eng.ImmediatelyCall(hop, nil)
		}
	}
	b.ResetTimer()
	eng.ImmediatelyCall(hop, nil)
	eng.RunUntil(eng.Now()) // the chain only: the future events stay queued
}

// placeRing places the requests of ring in turn, one per iteration, and
// once one no longer fits releases every live placement, each once. A
// placement lives in its request, so the ring must hold more requests than
// the partition can have placed at once: then a request comes round again
// only after a failed placement released it.
func placeRing(b *testing.B, plc *launch.Placer, ring []*launch.Request) {
	alloc := plc.Partition()
	live := make([]*launch.Request, 0, len(ring))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ring[i%len(ring)]
		if !plc.PlaceRequest(0, r) {
			for _, l := range live {
				alloc.Release(0, &l.Pl)
			}
			live = live[:0]
			continue
		}
		live = append(live, r)
	}
}

// BenchmarkPlacerSingleCore places single-core tasks on a 64-node
// partition, releasing everything once it is full.
func BenchmarkPlacerSingleCore(b *testing.B) {
	cluster := platform.NewCluster(platform.Frontier(1), 64)
	alloc := cluster.Allocate(64)
	td := &spec.TaskDescription{CoresPerRank: 1, Ranks: 1}
	ring := make([]*launch.Request, alloc.TotalCPU()+1)
	for i := range ring {
		ring[i] = &launch.Request{TD: td}
	}
	placeRing(b, launch.NewPlacer(alloc), ring)
}

// BenchmarkPlacerMultiNode places the Fig 8 campaign's four multi-node
// footprints (docking, surrogate training, scoring, ESMACS) in turn on a
// 1,024-node partition, releasing everything once one no longer fits.
func BenchmarkPlacerMultiNode(b *testing.B) {
	cluster := platform.NewCluster(platform.Frontier(1), 1024)
	alloc := cluster.Allocate(1024)
	var tds []*spec.TaskDescription
	for _, p := range workload.ImpeccablePipelines() {
		if td := p.Template.TD; td.MultiNode() {
			tds = append(tds, &td)
		}
	}
	if len(tds) != 4 {
		b.Fatalf("%d multi-node Fig 8 footprints, want 4", len(tds))
	}
	// Every footprint spans at least one node, so no more than 1,024
	// placements are ever live.
	ring := make([]*launch.Request, 1028)
	for i := range ring {
		ring[i] = &launch.Request{TD: tds[i%len(tds)]}
	}
	placeRing(b, launch.NewPlacer(alloc), ring)
}

func BenchmarkFullPilotThroughput(b *testing.B) {
	// End-to-end simulator cost: one 16-node flux pilot with a full
	// 4-wave dummy workload per iteration.
	for i := 0; i < b.N; i++ {
		sess := core.NewSession(core.Config{Seed: uint64(i)})
		pilot, err := sess.SubmitPilot(spec.PilotDescription{
			Nodes:      16,
			Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 2}},
		})
		if err != nil {
			b.Fatal(err)
		}
		tm := sess.TaskManager(pilot)
		tm.Submit(workload.Dummy(workload.FullDensityCount(16, 56), 180*sim.Second))
		if err := tm.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMillionTaskFoldSink folds one synthetic terminal task per op —
// run with -benchtime 1000000x and b.N *is* a million-task campaign's
// trace load. The proof of O(1) trace memory is allocs/op ≈ 0: folding
// allocates nothing once the start-bucket maps (bounded by simulated
// makespan, here cycled over one hour) are warm.
func BenchmarkMillionTaskFoldSink(b *testing.B) {
	f := obs.NewFold()
	tr := profiler.NewTaskTrace("task.bench")
	tr.Backend = "flux"
	tr.Cores = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i%3600) * sim.Time(sim.Second)
		tr.Submit = at
		tr.Scheduled = at + 500
		tr.Launch = at + 1500
		tr.Start = at + sim.Time(50*sim.Millisecond)
		tr.End = tr.Start + sim.Time(180*sim.Second)
		tr.Final = tr.End + 500
		f.OnTask(tr)
	}
	if f.Tasks() != b.N {
		b.Fatalf("fold saw %d tasks, want %d", f.Tasks(), b.N)
	}
}

func BenchmarkMetricsThroughput(b *testing.B) {
	starts := make([]sim.Time, 100000)
	for i := range starts {
		starts[i] = sim.Time(i) * sim.Time(sim.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.ComputeThroughput(starts)
	}
}

// --- helpers ---

func nodesLabel(n int) string { return "tasks/s_" + itoa(n) + "n" }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
