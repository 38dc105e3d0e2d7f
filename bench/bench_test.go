package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rpgo/internal/spec"
)

// oneRep runs a single rep outside the harness and returns its digest.
func oneRep(t *testing.T, run func(uint64, *clock) (repOut, error), seed uint64, traced bool) uint64 {
	t.Helper()
	c := &clock{}
	c.begin(traced)
	out, err := run(seed, c)
	if err != nil {
		t.Fatal(err)
	}
	return out.digest
}

// The rep digest is the golden fingerprint of internal/experiments for the
// same run, so the benchmark's correctness check is the repository's own.
func TestDigestReproducesGoldens(t *testing.T) {
	for _, tc := range []struct {
		name       string
		run        func(uint64, *clock) (repOut, error)
		seed, want uint64
	}{
		{"fig8", impeccable{nodes: 128, backend: spec.BackendFlux, maxIters: 6}.run, 424242, 0x8e446c867d8033a0},
		{"hybrid", hybrid{nodes: 8, instances: 2}.run, 99, 0x944348e46b879a60},
	} {
		if got := oneRep(t, tc.run, tc.seed, false); got != tc.want {
			t.Errorf("%s: digest %#x, want golden %#x", tc.name, got, tc.want)
		}
	}
}

func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, w := range catalog {
		if a, b := oneRep(t, w.run, 7, false), oneRep(t, w.run, 7, true); a != b {
			t.Errorf("%s: traced digest %#x, untraced %#x", w.name, b, a)
		}
	}
}

func TestStreamDigestSameAtShards1And2(t *testing.T) {
	w := stream{nodes: 1024, pilots: 16, tasks: 16384, wave: 256}
	w.shards = 1
	one := oneRep(t, w.run, defaultSeed, false)
	w.shards = 2
	if two := oneRep(t, w.run, defaultSeed, false); one != two {
		t.Fatalf("shards=1 digest %#x, shards=2 %#x", one, two)
	}
}

func TestPinnedDigest(t *testing.T) {
	w := catalog[slices.IndexFunc(catalog, func(w workload) bool { return w.name == "impeccable_flux" })]
	w.pin = 0
	o := options{seed: defaultSeed, reps: 2}
	pin, err := strconv.ParseUint(runWorkload(&w, o).Digest, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	w.pin = pin
	if r := runWorkload(&w, o); !r.correct() || r.Pin != "match (reps 0..1)" {
		t.Fatalf("true pin: correct=%v pin=%q errors=%v", r.correct(), r.Pin, r.Errors)
	}
	w.pin = pin ^ 1
	if r := runWorkload(&w, o); r.correct() || r.OpsFailed != o.reps {
		t.Fatalf("tampered pin: %d ops failed, want %d", r.OpsFailed, o.reps)
	}
	if r := runWorkload(&w, options{seed: defaultSeed + 1, reps: 2}); !r.correct() || !strings.HasPrefix(r.Pin, "not checked") {
		t.Fatalf("other seed: correct=%v pin=%q", r.correct(), r.Pin)
	}
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		q      float64
		v      float64
		beyond int
	}{
		{100, 0.9, 90, 10}, {100, 0.1, 11, 10}, {95, 0.9, 86, 9}, {95, 0.1, 10, 9},
		{120, 0.9, 108, 12}, {101, 0.5, 51, 50}, {2, 0.9, 2, 0}, {1, 0.1, 1, 0},
	} {
		v, beyond := quantile(seq(tc.n), tc.q)
		if v != tc.v || beyond != tc.beyond {
			t.Errorf("n=%d q=%v: %v with %d beyond, want %v with %d", tc.n, tc.q, v, beyond, tc.v, tc.beyond)
		}
	}
	if v, beyond := quantile(nil, 0.9); v != 0 || beyond != 0 {
		t.Errorf("empty: %v, %d", v, beyond)
	}
	if m := percentile("p", seq(95), 0.9); m.Note == "" {
		t.Error("p90 of 95 samples not flagged unresolved")
	}
	if m := percentile("p", seq(100), 0.1); m.Note != "" {
		t.Errorf("p10 of 100 samples flagged: %s", m.Note)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// At two reps every workload reports every metric BENCHMARK.json names,
// finite and in its unit; the end-to-end ones are never zero; and the
// traced rep's spans nest, each parent covering its children.
func TestEveryMetricAtTwoReps(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want benchmarkJSON
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Workloads) != len(catalog) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the catalog %d", len(want.Workloads), len(catalog))
	}
	for i, w := range catalog {
		if want.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the catalog %q", i, want.Workloads[i].Name, w.name)
		}
		w.pin = 0
		r := runWorkload(&w, options{seed: defaultSeed, reps: 2, trace: true})
		if !r.correct() || r.Ops != 5 || r.TracedReps != 1 { // warm-up, 2 reps, twin + traced
			t.Fatalf("%s: correct=%v ops=%d traced=%d errors=%v", w.name, r.correct(), r.Ops, r.TracedReps, r.Errors)
		}
		check := func(got []metric, want []struct{ Name, Unit string }, nonzero bool) {
			if len(got) != len(want) {
				t.Fatalf("%s: %d metrics, BENCHMARK.json names %d", w.name, len(got), len(want))
			}
			for j, m := range got {
				if m.Name != want[j].Name || m.Unit != want[j].Unit {
					t.Errorf("%s: metric %s [%s], BENCHMARK.json has %s [%s]", w.name, m.Name, m.Unit, want[j].Name, want[j].Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || nonzero && m.Value <= 0 {
					t.Errorf("%s: %s = %v", w.name, m.Name, m.Value)
				}
			}
		}
		check(r.EndToEnd, want.EndToEnd, true)
		check(r.PerLayer, want.PerLayer, false)
		if u := r.PerLayer[len(r.PerLayer)-1]; u.Name != "trace.unattributed_pct" || u.Value >= 2 {
			t.Errorf("%s: %s = %v, want below 2", w.name, u.Name, u.Value)
		}
		covered := make([]float64, len(r.Spans))
		for _, e := range r.Spans {
			if e.Args.Parent >= 0 {
				covered[e.Args.Parent] += e.Dur
			}
		}
		for i, e := range r.Spans {
			if covered[i] > e.Dur*(1+1e-9) {
				t.Errorf("%s: children of %s cover %.1f µs of its %.1f", w.name, e.Name, covered[i], e.Dur)
			}
		}
		line, err := summary([]result{r}, true)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 ||
			keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
			t.Errorf("%s: summary line %s", w.name, line)
		}
	}
}
