// Command impeccable runs the IMPECCABLE.v2 drug-discovery campaign on the
// simulated platform with either the srun or the Flux backend and reports
// makespan, utilization, and the Fig 8 timelines.
//
// Usage:
//
//	impeccable -nodes 256 -backend flux [-seed S] [-iters N] [-plot]
package main

import (
	"flag"
	"fmt"
	"os"

	"rpgo/internal/analytics"
	"rpgo/internal/experiments"
	"rpgo/internal/metrics"
	"rpgo/internal/spec"
)

func main() {
	nodes := flag.Int("nodes", 256, "pilot size in nodes (paper: 256 or 1024)")
	backendName := flag.String("backend", "flux", "task launcher: srun or flux")
	seed := flag.Uint64("seed", 1, "RNG seed")
	iters := flag.Int("iters", 0, "cap pipeline iterations (0: full campaign)")
	plot := flag.Bool("plot", true, "render ASCII timelines")
	traceOut := flag.String("trace", "", "write the per-task trace table (CSV) to this file")
	breakdown := flag.Bool("breakdown", false, "print the per-segment overhead decomposition")
	flag.Parse()

	var backend spec.Backend
	switch *backendName {
	case "srun":
		backend = spec.BackendSrun
	case "flux":
		backend = spec.BackendFlux
	default:
		fmt.Fprintf(os.Stderr, "impeccable: backend must be srun or flux\n")
		os.Exit(2)
	}

	res := experiments.RunImpeccable(experiments.ImpeccableConfig{
		Nodes:    *nodes,
		Backend:  backend,
		Seed:     *seed,
		MaxIters: *iters,
	})

	fmt.Printf("IMPECCABLE campaign: %d nodes, %s backend\n", *nodes, backend)
	fmt.Printf("  tasks:        %d (%d failed)\n", res.Tasks, res.Failed)
	fmt.Printf("  makespan:     %.0f s\n", res.Makespan.Seconds())
	fmt.Printf("  utilization:  CPU %.1f%%  GPU %.1f%%\n", res.CPUUtil*100, res.GPUUtil*100)
	fmt.Printf("  concurrency:  peak %.0f running tasks\n", res.PeakConcurrency)
	fmt.Printf("  start rate:   mean %.2f tasks/s over 30s windows\n", res.MeanStartRate)
	if *plot {
		fmt.Println()
		fmt.Print(metrics.ASCIIPlot(res.Concurrency, 78, 12, "running tasks"))
		fmt.Println()
		fmt.Print(metrics.ASCIIPlot(res.StartRate, 78, 10, "execution start rate [tasks/s]"))
	}
	if *breakdown {
		fmt.Println("\nper-segment timing:")
		fmt.Print(analytics.Analyze(res.Traces).String())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "impeccable: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := analytics.WriteCSV(f, res.Traces); err != nil {
			fmt.Fprintf(os.Stderr, "impeccable: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "impeccable: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace table written to %s\n", *traceOut)
	}
}
