// Command bench is rpgo's benchmark: the host time and memory the
// simulator spends per simulated task on five workloads from the paper,
// with the simulated output checked on every rep, and a traced run that
// attributes the cost to layers. README.md has the metric and workload
// catalog.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME|all] [-seed S] [-seconds N] [-trace 0|1|FILE] [-out FILE]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics by name — the end-to-end ones, or with tracing
// on the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
)

// traceFlag is -trace: "0" off, "1" on, anything else on with the spans
// written to that file.
type traceFlag struct {
	on   bool
	file string
}

func (t *traceFlag) String() string {
	switch {
	case t.file != "":
		return t.file
	case t.on:
		return "1"
	}
	return "0"
}

func (t *traceFlag) Set(v string) error {
	switch v {
	case "0":
		*t = traceFlag{}
	case "1":
		*t = traceFlag{on: true}
	default:
		*t = traceFlag{on: true, file: v}
	}
	return nil
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all (each in a process of its own)")
	seed := flag.Uint64("seed", defaultSeed, "base seed; rep r uses seed+r")
	seconds := flag.Int("seconds", 5, "time each workload's reps for at least this many seconds (and at least 100 reps)")
	var tf traceFlag
	flag.Var(&tf, "trace", "0: off; 1: also run traced reps and report the per-layer metrics; FILE: as 1, and write the spans to FILE")
	out := flag.String("out", "", "write the machine-readable result to this JSON file")
	child := flag.Bool("child", false, "print the whole result as JSON (how -workload all runs each workload)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	o := options{seed: *seed, reps: minReps, seconds: *seconds, trace: tf.on}

	var results []result
	if *name == "all" {
		for _, w := range catalog {
			r, err := runChild(w.name, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			results = append(results, r)
		}
	} else {
		i := slices.IndexFunc(catalog, func(w workload) bool { return w.name == *name })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		r := runWorkload(&catalog[i], o)
		if *child {
			if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
			return
		}
		results = []result{r}
	}

	for i := range results {
		report(os.Stdout, &results[i])
	}
	if err := writeFiles(tf.file, *out, o, results); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	line, err := summary(results, o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runChild runs one workload in a process of its own, so that its peak RSS
// and heap are its own, and reads back its result.
func runChild(name string, o options) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	var r result
	if err := json.Unmarshal(stdout, &r); err != nil {
		return result{}, fmt.Errorf("reading its result: %w", err)
	}
	return r, nil
}

func report(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s: %d reps + 1 warm-up", r.Workload, r.Reps)
	if r.TracedReps > 0 {
		fmt.Fprintf(w, ", %d traced", r.TracedReps)
	}
	fmt.Fprintf(w, ", seed %d, %d tasks timed\n", r.Seed, r.Tasks)
	fmt.Fprintf(w, "  ops %d, ops_failed %d, digest %s, pin: %s\n", r.Ops, r.OpsFailed, r.Digest, r.Pin)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED %s\n", e)
	}
	for _, m := range r.EndToEnd {
		printMetric(w, m, "")
	}
	for _, m := range r.Info {
		printMetric(w, m, "not gated")
	}
	for _, m := range r.PerLayer {
		printMetric(w, m, "")
	}
}

func printMetric(w io.Writer, m metric, note string) {
	fmt.Fprintf(w, "  %-34s %14.4f %s", m.Name, m.Value, m.Unit)
	for _, n := range []string{note, m.Note} {
		if n != "" {
			fmt.Fprintf(w, "  (%s)", n)
		}
	}
	fmt.Fprintln(w)
}

// summary is the final line. Metric names carry a "workload/" prefix when
// the run covers several workloads.
func summary(results []result, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	s := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		s.Correct = s.Correct && r.correct()
		s.Attempted += r.Ops
		s.Failed += r.OpsFailed
		ms := r.EndToEnd
		if traced {
			ms = r.PerLayer
		}
		for _, m := range ms {
			key := m.Name
			if len(results) > 1 {
				key = r.Workload + "/" + m.Name
			}
			s.Metrics[key] = value{m.Value, m.Unit}
		}
	}
	return json.Marshal(s)
}

func writeFiles(traceFile, outFile string, o options, results []result) error {
	if traceFile != "" {
		var evs []traceEvent
		for _, r := range results {
			evs = append(evs, r.Spans...)
		}
		doc := map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"}
		if err := writeJSON(traceFile, doc); err != nil {
			return err
		}
	}
	if outFile == "" {
		return nil
	}
	ws := slices.Clone(results)
	for i := range ws {
		ws[i].Spans = nil
	}
	doc := map[string]any{
		"meta": map[string]any{
			"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": procs, "commit": commit(),
			"seed": o.seed, "reps": o.reps, "seconds": o.seconds, "trace": o.trace,
		},
		"workloads": ws,
	}
	return writeJSON(outFile, doc)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit is the VCS revision the binary was built from, if the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
