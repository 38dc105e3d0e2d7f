// Faults: the seeded failure model end to end. Three acts:
//
//  1. The same checkpointed training fan-out run failure-free and then
//     under node churn on the same seed: failures evict running tasks,
//     the placer relocates them, checkpoints restore, and the blame
//     decomposition shows exactly where the lost time went.
//  2. The makespan-vs-MTBF sweep: how fast the runtime degrades as nodes
//     get flakier, for locality-blind vs data-aware placement.
//  3. Backend crash/restart and stragglers: pilot elasticity when a whole
//     backend instance dies, plus slow nodes stretching execution.
//
// Run with: go run ./examples/faults
package main

import (
	"flag"
	"fmt"
	"os"

	"rpgo/internal/analytics"
	"rpgo/internal/experiments"
	"rpgo/internal/workload"
	"rpgo/rp"
)

func runFanout(fp rp.FaultParams, seed uint64, sink rp.TraceSink) (*rp.Session, *rp.Pilot) {
	params := rp.DefaultParams()
	params.Fault = fp
	sess := rp.NewSession(rp.Config{Seed: seed, Params: &params, Sink: sink})
	pilot, err := sess.SubmitPilot(rp.PilotDescription{
		Nodes: 4, SMT: 1,
		Partitions: []rp.PartitionConfig{{Backend: rp.BackendFlux, Instances: 1}},
		Placement:  rp.PlaceDataAware,
	})
	if err != nil {
		panic(err)
	}
	tasks := workload.TrainingFanout(4, 4, 256<<20, rp.Seconds(120))
	for _, td := range tasks {
		td.MaxRetries = 12
		td.CheckpointInterval = rp.Seconds(15)
		td.CheckpointBytes = 256 << 20
	}
	tm := sess.TaskManager(pilot)
	tm.Submit(tasks)
	if err := tm.Wait(); err != nil {
		panic(err)
	}
	return sess, pilot
}

func main() {
	tracePath := flag.String("trace", "", "spill the churn run's traces as JSONL to this file")
	flag.Parse()
	const seed = 4242

	// --- Act 1: same workload, with and without node churn ---
	fmt.Println("=== surviving node failures: checkpointed fan-out, 4 nodes, one seed ===")
	fmt.Println("16 tasks × 120 s, checkpoint every 15 s; node MTBF 90 s, downtime 30 s.")
	fmt.Println()
	clean, _ := runFanout(rp.FaultParams{}, seed, nil)
	cleanBlame := analytics.BlameFromTraces(clean.Profiler.Tasks())
	// The optional spill tees with a retaining sink so the in-process blame
	// report below still sees the traces.
	var sink rp.TraceSink
	var spill *rp.JSONLSink
	var spillFile *os.File
	if *tracePath != "" {
		var err error
		if spillFile, err = os.Create(*tracePath); err != nil {
			panic(err)
		}
		defer spillFile.Close()
		spill = rp.NewJSONLSink(spillFile)
		sink = rp.TeeSink(&rp.MemorySink{}, spill)
	}
	faulty, pilot := runFanout(rp.FaultParams{NodeMTBF: 90, NodeDowntime: 30, Horizon: 600}, seed, sink)
	st := pilot.Faults.Stats()
	fmt.Printf("failure-free makespan %7.1fs\n", cleanBlame.Makespan.Seconds())
	fmt.Printf("under churn  makespan %7.1fs   (%d node failures, %d tasks evicted and relocated)\n",
		analytics.BlameFromTraces(faulty.Profiler.Tasks()).Makespan.Seconds(),
		st.NodeFailures, st.Victims)
	fmt.Println()
	fmt.Println("blame decomposition under churn (rptrace blame prints the same):")
	rep := analytics.BlameFromTraces(faulty.Profiler.Tasks())
	rep.WriteText(os.Stdout)
	if spill != nil {
		if err := spill.Flush(); err != nil {
			panic(err)
		}
		if err := spillFile.Close(); err != nil {
			panic(err)
		}
		fmt.Printf("trace spill: %d records -> %s\n", spill.Records(), *tracePath)
	}
	fmt.Println()

	// --- Act 2: makespan vs MTBF, pack vs data-aware ---
	fmt.Println("=== failure sweep: makespan vs node MTBF, pack vs data-aware ===")
	res := experiments.RunFailureSweep(experiments.FailureSweepConfig{
		Nodes: 4, MTBFs: []float64{60, 120, 600},
		TaskSeconds: 120, CheckpointSeconds: 10, CheckpointBytes: 1 << 27,
		Horizon: 1200, Seed: seed,
	})
	fmt.Printf("%-12s %9s %10s %6s %8s %9s %11s %11s\n",
		"policy", "MTBF", "makespan", "fails", "retries", "victims", "t(failure)", "t(ckpt)")
	for _, c := range res.Cells {
		fmt.Printf("%-12s %8.0fs %9.1fs %6d %8d %9d %10.1fs %10.1fs\n",
			c.Policy, c.MTBF, c.Makespan.Seconds(), c.Failed, c.Retries,
			c.Victims, c.BlameFailure.Seconds(), c.BlameCheckpoint.Seconds())
	}
	fmt.Println()

	// --- Act 3: backend crash/restart + stragglers ---
	fmt.Println("=== pilot elasticity: backend crashes and straggler nodes ===")
	fmt.Println("Same fan-out; backend MTBF 120 s (30 s restart), 25% straggler")
	fmt.Println("nodes at 2× slowdown. Tasks park while instances are down and")
	fmt.Println("flush when the restarted backend comes back up.")
	fmt.Println()
	el, epilot := runFanout(rp.FaultParams{
		BackendMTBF: 120, BackendDowntime: 30,
		StragglerFrac: 0.25, StragglerFactor: 2,
		Horizon: 600,
	}, seed, nil)
	est := epilot.Faults.Stats()
	erep := analytics.BlameFromTraces(el.Profiler.Tasks())
	fmt.Printf("makespan %.1fs with %d backend crashes / %d restarts, %d straggler node(s)\n",
		erep.Makespan.Seconds(), est.BackendCrashes, est.BackendRestarts, est.StragglerNodes)
	fmt.Printf("tasks: %d done, %d failed\n", erep.Tasks-erep.Failed, erep.Failed)
}
