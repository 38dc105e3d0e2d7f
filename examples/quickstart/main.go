// Quickstart: submit a pilot, run a bag of tasks through RADICAL-Pilot's
// default srun executor, and read back the task traces.
//
// Run with: go run ./examples/quickstart
//
// Telemetry flags:
//
//	-trace run.jsonl   spill every completed trace as JSON lines
//	                   (post-process with cmd/rptrace: stats, top, export)
//	-metrics           print the session's runtime-metrics snapshot
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"rpgo/rp"
)

func main() {
	traceOut := flag.String("trace", "", "write a JSONL trace spill to this file")
	showMetrics := flag.Bool("metrics", false, "print the runtime-metrics snapshot")
	flag.Parse()

	// A session owns the (simulated) machine, the Slurm controller, and
	// the virtual clock. The seed makes the run exactly reproducible.
	cfg := rp.Config{Seed: 42}

	// With -trace, tee every completed trace into a JSONL spill while the
	// profiler still retains them for the summary below.
	var spill *rp.JSONLSink
	var spillFile *os.File
	if *traceOut != "" {
		var err error
		if spillFile, err = os.Create(*traceOut); err != nil {
			log.Fatal(err)
		}
		defer spillFile.Close()
		spill = rp.NewJSONLSink(spillFile)
		cfg.Sink = rp.TeeSink(&rp.MemorySink{}, spill)
	}
	sess := rp.NewSession(cfg)

	// Request a 4-node pilot. With no partition layout, the agent uses
	// RP's default executor: task launching via srun — subject to
	// Frontier's ceiling of 112 concurrent srun invocations.
	pilot, err := sess.SubmitPilot(rp.PilotDescription{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}

	// Build 896 single-core tasks that each "compute" for 180 seconds —
	// the workload of the paper's Fig 4.
	tasks := make([]*rp.TaskDescription, 896)
	for i := range tasks {
		tasks[i] = &rp.TaskDescription{
			Kind:         rp.Executable,
			CoresPerRank: 1,
			Ranks:        1,
			Duration:     180 * rp.Second,
		}
	}

	tm := sess.TaskManager(pilot)
	tm.Submit(tasks)

	// Wait drives the virtual clock until every task is final.
	if err := tm.Wait(); err != nil {
		log.Fatal(err)
	}

	// Task traces carry every lifecycle timestamp.
	traces := sess.Profiler.Tasks()
	done, failed := 0, 0
	var firstStart, lastEnd rp.Time = -1, -1
	for _, tr := range traces {
		if tr.Failed {
			failed++
			continue
		}
		done++
		if firstStart < 0 || tr.Start < firstStart {
			firstStart = tr.Start
		}
		if tr.End > lastEnd {
			lastEnd = tr.End
		}
	}
	fmt.Printf("tasks: %d done, %d failed\n", done, failed)
	fmt.Printf("execution window: %.1fs .. %.1fs (virtual time)\n",
		firstStart.Seconds(), lastEnd.Seconds())
	fmt.Printf("srun ceiling high-water: %d concurrent launches (cap 112)\n",
		sess.Controller.Ceiling().HighWater)
	fmt.Printf("CPU utilization: %.1f%% (the ceiling caps it at ~50%%)\n",
		rp.Utilization(traces, pilot.Alloc.TotalCPU(), firstStart, lastEnd)*100)

	if spill != nil {
		if err := spill.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := spillFile.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace spill: %d records -> %s\n", spill.Records(), *traceOut)
	}
	if *showMetrics {
		fmt.Println("\nruntime metrics:")
		fmt.Print(sess.MetricsSnapshot().Render())
	}
}
