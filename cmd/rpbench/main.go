// Command rpbench regenerates every table and figure of the paper's
// evaluation section from the simulated runtime stack.
//
// Usage:
//
//	rpbench [-full] [-reps N] [-seed S] [-parallel N] [-serve ADDR]
//	        [-only table1|fig4|fig5|fig6|fig7|fig8|claims|telemetry|blame|sharded]
//
// Without -only it runs the complete suite. -full includes the 1024-node
// throughput sweeps (slower); Fig 8 and the claims always run the paper's
// 256- and 1024-node campaign configurations. -parallel runs independent
// experiment cells on N workers; output is identical to the serial run
// (cells derive their seeds from grid position, results are folded in
// cell order). The sharded artifact runs one 16-pilot campaign at 1, 2,
// 4, 8 and 16 shard engines and prints the wall-clock speedup scorecard.
// The engines run in turn on one goroutine and the simulated result is
// identical at every shard count, so only wall time moves (DESIGN.md §8).
// -serve exposes /metrics (Prometheus text exposition), /healthz and
// /progress over HTTP for the life of the process; the sharded artifact
// feeds it live.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rpgo/internal/experiments"
	"rpgo/internal/obs"
)

func main() {
	full := flag.Bool("full", false, "include 1024-node throughput sweeps")
	reps := flag.Int("reps", 3, "repetitions per throughput cell")
	seed := flag.Uint64("seed", 20250916, "base RNG seed")
	parallel := flag.Int("parallel", 1, "worker count for independent experiment cells")
	serve := flag.String("serve", "", "serve /metrics, /healthz and /progress on this address (e.g. :9464) while the sharded artifact runs")
	only := flag.String("only", "", "run a single artifact: table1, fig4, fig5, fig6, fig7, fig8, claims, telemetry, blame, sharded")
	flag.Parse()

	experiments.SetParallelism(*parallel)
	sc := experiments.SuiteConfig{Seed: *seed, Reps: *reps, Full: *full}

	var mon *obs.Monitor
	if *serve != "" {
		mon = obs.NewMonitor(0)
		addr, err := mon.Serve(*serve)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rpbench: -serve %s: %v\n", *serve, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rpbench: monitoring on http://%s/metrics\n", addr)
	}

	artifacts := []struct {
		name string
		run  func() string
	}{
		{"table1", experiments.ReportTable1},
		{"fig4", func() string { return experiments.ReportFig4(sc.Seed) }},
		{"fig5", func() string { return experiments.ReportFig5(sc) }},
		{"fig6", func() string { return experiments.ReportFig6(sc) }},
		{"fig7", func() string { return experiments.ReportFig7(sc) }},
		{"fig8", func() string { return experiments.ReportFig8(sc) }},
		{"claims", func() string { return experiments.ReportClaims(sc) }},
		{"telemetry", func() string { return experiments.ReportTelemetry(sc) }},
		{"blame", func() string { return experiments.ReportBlame(sc) }},
		{"sharded", func() string { return reportSharded(sc.Seed, mon) }},
	}

	ran := 0
	for _, a := range artifacts {
		if *only != "" && !strings.EqualFold(*only, a.name) {
			continue
		}
		t0 := time.Now()
		out := a.run()
		fmt.Println(strings.Repeat("=", 78))
		fmt.Println(out)
		fmt.Printf("[%s regenerated in %.1fs]\n\n", a.name, time.Since(t0).Seconds())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "rpbench: unknown artifact %q\n", *only)
		os.Exit(2)
	}
}

// reportSharded renders the speedup-vs-shards scorecard for the 65536-node
// multi-pilot campaign.
func reportSharded(seed uint64, mon *obs.Monitor) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Sharded engine scorecard — 16 pilots × 4096 nodes, IMPECCABLE/Flux (seed %d)\n\n", seed)
	fmt.Fprintf(&sb, "%8s %12s %10s %10s %10s %10s\n",
		"shards", "wall", "speedup", "tasks", "windows", "la_eff")
	for _, row := range experiments.ReportSharded(65536, 16, seed, 0, mon) {
		fmt.Fprintf(&sb, "%8d %12s %9.2fx %10d %10d %10.2f\n",
			row.Shards, row.Wall.Round(time.Millisecond), row.Speedup, row.Tasks, row.Windows,
			row.Efficiency)
	}
	sb.WriteString("\nSimulated traces are identical at every shard count; only wall time moves.\n")
	sb.WriteString("la_eff = measured sim-time advanced per window over the lookahead\n")
	sb.WriteString("(>=1; higher is better).")
	return sb.String()
}
