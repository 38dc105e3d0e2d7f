// DAG execution + post-mortem analytics: express a fan-out/fan-in
// simulate→train→score workflow as plain completion callbacks, run it
// through a hybrid Flux+Dragon pilot, and analyze where time went (the
// RADICAL-Analytics style overhead decomposition).
//
// Run with: go run ./examples/dagrun
package main

import (
	"fmt"
	"log"
	"os"

	"rpgo/internal/analytics"
	"rpgo/rp"
)

// batch is one set of tasks released together, with the virtual instants
// it was submitted and its last task became final.
type batch struct {
	name                 string
	tasks, pending       int
	submitted, completed rp.Time
	then                 func()
}

func main() {
	sess := rp.NewSession(rp.Config{Seed: 99})
	pilot, err := sess.SubmitPilot(rp.PilotDescription{
		Nodes: 8,
		Partitions: []rp.PartitionConfig{
			{Backend: rp.BackendFlux, Instances: 2, NodeShare: 0.75},
			{Backend: rp.BackendDragon, Instances: 1, NodeShare: 0.25},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	tm := sess.TaskManager(pilot)

	sim := func(n int, dur rp.Duration) []*rp.TaskDescription {
		tds := make([]*rp.TaskDescription, n)
		for i := range tds {
			tds[i] = &rp.TaskDescription{
				Kind: rp.Executable, CoresPerRank: 7, Ranks: 1, Duration: dur,
			}
		}
		return tds
	}
	fn := func(n int, dur rp.Duration) []*rp.TaskDescription {
		tds := make([]*rp.TaskDescription, n)
		for i := range tds {
			tds[i] = &rp.TaskDescription{
				Kind: rp.Function, CoresPerRank: 1, Ranks: 1, GPUsPerRank: 1, Duration: dur,
			}
		}
		return tds
	}

	// submit releases tds as one batch and calls then, if set, once the
	// batch's last task is final. A dependency is a submit inside the
	// callback of the batch it waits on.
	var batches []*batch
	owner := make(map[*rp.Task]*batch)
	submit := func(name string, tds []*rp.TaskDescription, then func()) {
		b := &batch{name: name, tasks: len(tds), pending: len(tds), submitted: sess.Engine.Now(), then: then}
		batches = append(batches, b)
		for _, t := range tm.Submit(tds) {
			owner[t] = b
		}
	}
	tm.OnComplete = func(t *rp.Task) {
		b := owner[t]
		b.pending--
		if b.pending == 0 {
			b.completed = sess.Engine.Now()
			if b.then != nil {
				b.then()
			}
		}
	}

	// An ensemble of simulations fans out, a training function consumes
	// them, scoring and refinement fan out again, and an analysis step
	// joins both.
	submit("ensemble", sim(32, 120*rp.Second), func() {
		submit("train", fn(2, 300*rp.Second), func() {
			joins := 2
			join := func() {
				joins--
				if joins == 0 {
					submit("analysis", fn(1, 60*rp.Second), nil)
				}
			}
			submit("score", fn(64, 30*rp.Second), join)
			submit("refine", sim(16, 60*rp.Second), join)
		})
	})
	if err := tm.Wait(); err != nil {
		log.Fatal(err)
	}

	// Each batch starts the instant its last dependency ends, so the
	// critical path is the DAG's span.
	span := batches[len(batches)-1].completed.Sub(batches[0].submitted)
	fmt.Printf("DAG complete; critical path %.1fs of virtual time\n\n", span.Seconds())
	for _, b := range batches {
		fmt.Printf("  %-10s %3d tasks  [%8.1fs .. %8.1fs]\n",
			b.name, b.tasks, b.submitted.Seconds(), b.completed.Seconds())
	}

	// Overhead decomposition across all tasks.
	fmt.Println("\nper-segment timing (RADICAL-Analytics style):")
	fmt.Print(analytics.Analyze(sess.Profiler.Tasks()).String())

	fmt.Println("per-backend instance breakdown:")
	for _, bs := range analytics.PerBackend(sess.Profiler.Tasks()) {
		fmt.Printf("  %-10s %4d tasks, mean launch latency %6.3fs\n",
			bs.Backend, bs.Tasks, bs.MeanLaunchLatency)
	}

	// Export the full trace table for external analysis.
	f, err := os.CreateTemp("", "rpgo-trace-*.csv")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := analytics.WriteCSV(f, sess.Profiler.Tasks()); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull trace table written to %s\n", f.Name())
}
