// Coupled HPC + inference campaign: a persistent model-serving endpoint
// deployed inside the pilot, simulation tasks blocking on its responses
// mid-run, dynamic batching, and a load-based autoscaler riding the
// campaign's waves. Reports p50/p95/p99 request latency, batch occupancy,
// replica utilization and the autoscaling event timeline — all
// deterministic for the fixed seed.
//
// Run with: go run ./examples/services
package main

import (
	"fmt"
	"log"

	"rpgo/rp"
)

func main() {
	sess := rp.NewSession(rp.Config{Seed: 42})

	// 16 nodes: executables (the simulation side) on Flux, the inference
	// service (and any function tasks) on Dragon.
	pilot, err := sess.SubmitPilot(rp.PilotDescription{
		Nodes: 16,
		Partitions: []rp.PartitionConfig{
			{Backend: rp.BackendFlux, Instances: 2, NodeShare: 0.5},
			{Backend: rp.BackendDragon, Instances: 1, NodeShare: 0.5},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// A surrogate-model endpoint: one warm GPU replica, allowed to grow
	// to eight under load. Batches of up to 8 requests amortize the
	// model's base latency (100 ms + 18 ms per extra item).
	svc, err := pilot.DeployService(rp.ServiceDescription{
		Name:            "surrogate",
		Replicas:        1,
		MinReplicas:     1,
		MaxReplicas:     8,
		CoresPerReplica: 2,
		GPUsPerReplica:  1,
		StartupDelay:    8 * rp.Second,
		BaseLatency:     100 * rp.Millisecond,
		PerItemLatency:  18 * rp.Millisecond,
		LatencySigma:    0.25,
		BatchWindow:     25 * rp.Millisecond,
		MaxBatch:        8,

		TargetQueuePerReplica: 3,
		ScaleCooldown:         10 * rp.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The campaign arrives in three waves — a warm-up, a surge that
	// forces scale-up, and a tail during which the endpoint shrinks
	// back. Every simulation task computes 120 s and calls the surrogate
	// twice: 4 requests at 40% progress, 4 more at 90%.
	coupled := func(n int) []*rp.TaskDescription {
		out := make([]*rp.TaskDescription, n)
		for i := range out {
			out[i] = &rp.TaskDescription{
				Kind: rp.Executable, Coupling: rp.DataCoupled,
				CoresPerRank: 2, Ranks: 1,
				Duration: 120 * rp.Second,
				Requests: []rp.ServiceCall{
					{Service: "surrogate", Count: 4, Phase: 0.4},
					{Service: "surrogate", Count: 4, Phase: 0.9},
				},
				Workflow: "steered-sim",
			}
		}
		return out
	}
	tm := sess.TaskManager(pilot)
	tm.Submit(coupled(40))                                              // warm-up wave
	sess.Engine.After(90*rp.Second, func() { tm.Submit(coupled(160)) }) // surge
	sess.Engine.After(360*rp.Second, func() { tm.Submit(coupled(30)) }) // tail

	if err := tm.Wait(); err != nil {
		log.Fatal(err)
	}

	st := svc.Stats()
	fmt.Printf("campaign: %d coupled tasks, %d inference requests (%d failed)\n",
		tm.FinalCount(), st.Served, st.Failed)
	fmt.Printf("request latency: p50=%.3fs p95=%.3fs p99=%.3fs (max %.3fs)\n",
		st.Latency.P50, st.Latency.P95, st.Latency.P99, st.Latency.Max)
	fmt.Printf("queue wait:      p50=%.3fs p95=%.3fs p99=%.3fs\n",
		st.QueueWait.P50, st.QueueWait.P95, st.QueueWait.P99)
	fmt.Printf("batching: mean batch %.2f of %d (occupancy %.0f%%), peak queue %d\n",
		st.MeanBatch, 8, st.Occupancy*100, st.PeakQueue)
	fmt.Printf("replicas: now %d, peak %d, busy-utilization %.0f%%\n\n",
		st.Replicas, st.PeakReplicas, st.Utilization*100)

	fmt.Println("autoscaling timeline:")
	for _, ev := range st.ScaleEvents {
		fmt.Printf("  %v\n", ev)
	}
	fmt.Println()
	fmt.Print(rp.ASCIIPlot(svc.Endpoint().ReplicaSeries(72), 72, 8, "replicas over time"))

	// Mean time each simulation spent blocked on inference.
	var wait rp.Duration
	var reqs int
	for _, tr := range sess.Profiler.Tasks() {
		reqs += tr.ServiceRequests
		wait += tr.ServiceWait
	}
	fmt.Printf("\ncoupling cost: %d requests issued by tasks, mean block %.2fs per task\n",
		reqs, wait.Seconds()/float64(tm.FinalCount()))
}
