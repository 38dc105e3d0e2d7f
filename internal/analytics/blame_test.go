package analytics

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

// mkTrace builds a fully-stamped trace with a simple monotone milestone
// chain at second granularity.
func mkTrace(uid string, submit, sched, launch, start, end, final int64) *profiler.TaskTrace {
	return &profiler.TaskTrace{
		UID:       uid,
		Submit:    sim.Time(submit),
		Scheduled: sim.Time(sched),
		Launch:    sim.Time(launch),
		Start:     sim.Time(start),
		End:       sim.Time(end),
		Final:     sim.Time(final),
	}
}

func TestSummarizeExactDecomposition(t *testing.T) {
	const s = int64(sim.Second)
	tr := mkTrace("t.0", 0, 1*s, 2*s, 10*s, 20*s, 21*s)
	// 5 s of queue wait inside [launch, start], 2 s of it starved.
	tr.AddEdge(profiler.CausalEdge{Kind: profiler.EdgeQueued, From: sim.Time(3 * s), To: sim.Time(8 * s)})
	tr.AddEdge(profiler.CausalEdge{Kind: profiler.EdgeStarved, From: sim.Time(6 * s), To: sim.Time(8 * s)})
	// 3 s blocked on a transfer inside the body, 2 s on a service call
	// overlapping the transfer by 1 s.
	tr.AddEdge(profiler.CausalEdge{Kind: profiler.EdgeStage, From: sim.Time(11 * s), To: sim.Time(14 * s), Ref: "xfer.000001"})
	tr.AddEdge(profiler.CausalEdge{Kind: profiler.EdgeService, From: sim.Time(13 * s), To: sim.Time(15 * s), Ref: "llm"})

	sum := Summarize(tr)
	if !sum.Valid() {
		t.Fatal("summary not valid")
	}
	if got, want := sum.Blame.Total(), sum.Span(); got != want {
		t.Fatalf("Blame.Total() = %d, want span %d", got, want)
	}
	if got := sum.Blame[BlameStarve]; got != sim.Duration(2*s) {
		t.Errorf("starve = %v, want 2s", got)
	}
	if got := sum.Blame[BlameQueue]; got != sim.Duration(3*s) {
		t.Errorf("queue = %v, want 3s (queued minus starved overlap)", got)
	}
	if got := sum.Blame[BlameData]; got != sim.Duration(3*s) {
		t.Errorf("data = %v, want 3s", got)
	}
	if got := sum.Blame[BlameService]; got != sim.Duration(1*s) {
		t.Errorf("service = %v, want 1s (service minus data overlap)", got)
	}
	if got := sum.Blame[BlameExec]; got != sim.Duration(6*s) {
		t.Errorf("exec = %v, want 6s", got)
	}
	// Dominant wait is the 5 s queue edge.
	if sum.Dominant != "queued" || sum.DominantWait != sim.Duration(5*s) {
		t.Errorf("dominant = %q/%v, want queued/5s", sum.Dominant, sum.DominantWait)
	}
}

func TestSummarizeStageOutTail(t *testing.T) {
	const s = int64(sim.Second)
	tr := mkTrace("t.1", 0, 0, 0, 0, 10*s, 10*s)
	tr.StageOut = sim.Duration(4 * s)
	sum := Summarize(tr)
	if got := sum.Blame[BlameData]; got != sim.Duration(4*s) {
		t.Errorf("data = %v, want 4s stage-out tail", got)
	}
	if got := sum.Blame[BlameExec]; got != sim.Duration(6*s) {
		t.Errorf("exec = %v, want 6s", got)
	}
	if sum.Blame.Total() != sum.Span() {
		t.Fatalf("decomposition not exact: %v != %v", sum.Blame.Total(), sum.Span())
	}
}

func TestSummarizeUnsetMilestones(t *testing.T) {
	// A failed task that never started: scheduled/launch/start/end unset.
	tr := profiler.NewTaskTrace("t.2")
	tr.Submit = 0
	tr.Final = sim.Time(5 * int64(sim.Second))
	tr.Failed = true
	sum := Summarize(tr)
	if !sum.Valid() {
		t.Fatal("summary should be valid (submit and final set)")
	}
	if sum.Blame.Total() != sum.Span() {
		t.Fatalf("decomposition not exact: %v != %v", sum.Blame.Total(), sum.Span())
	}
	if sum.Blame[BlameMiddleware] != sum.Span() {
		t.Errorf("all span should be middleware, got %v of %v", sum.Blame[BlameMiddleware], sum.Span())
	}
}

func TestSummarizeInvalid(t *testing.T) {
	tr := profiler.NewTaskTrace("t.3") // all timestamps unset
	if sum := Summarize(tr); sum.Valid() {
		t.Fatal("summary of an unstamped trace must be invalid")
	}
}

func TestComputeBlameChainAndGaps(t *testing.T) {
	const s = int64(sim.Second)
	traces := []*profiler.TaskTrace{
		mkTrace("t.0", 0, 0, 0, 0, 10*s, 10*s),
		// Gap of 2 s after t.0, then t.1 runs.
		mkTrace("t.1", 12*s, 12*s, 12*s, 12*s, 20*s, 20*s),
		// Overlapping non-critical task.
		mkTrace("t.2", 1*s, 1*s, 1*s, 1*s, 5*s, 5*s),
	}
	rep := BlameFromTraces(traces)
	if rep.Tasks != 3 {
		t.Fatalf("tasks = %d, want 3", rep.Tasks)
	}
	if got, want := rep.Makespan, sim.Duration(20*s); got != want {
		t.Fatalf("makespan = %v, want %v", got, want)
	}
	if got := rep.Blame.Total(); got != rep.Makespan {
		t.Fatalf("Blame.Total() = %v, want makespan %v", got, rep.Makespan)
	}
	// Chain is t.1 (latest) → t.0; the 2 s gap is middleware.
	if len(rep.Chain) != 2 || rep.Chain[0].UID != "t.1" || rep.Chain[1].UID != "t.0" {
		t.Fatalf("chain = %+v, want [t.1 t.0]", rep.Chain)
	}
	if rep.Chain[0].Gap != sim.Duration(2*s) {
		t.Errorf("gap = %v, want 2s", rep.Chain[0].Gap)
	}
	if rep.Blame[BlameMiddleware] != sim.Duration(2*s) {
		t.Errorf("middleware = %v, want the 2s chain gap", rep.Blame[BlameMiddleware])
	}
	if rep.Blame[BlameExec] != sim.Duration(18*s) {
		t.Errorf("exec = %v, want 18s (10+8 on the chain)", rep.Blame[BlameExec])
	}
}

func TestComputeBlameZeroSpanRun(t *testing.T) {
	// A run of zero-span tasks sharing one timestamp must terminate and
	// still telescope exactly.
	traces := []*profiler.TaskTrace{
		mkTrace("a", 5, 5, 5, 5, 5, 5),
		mkTrace("b", 5, 5, 5, 5, 5, 5),
		mkTrace("c", 5, 5, 5, 5, 5, 5),
		mkTrace("d", 0, 0, 0, 0, 5, 5),
	}
	rep := BlameFromTraces(traces)
	if rep.Makespan != 5 {
		t.Fatalf("makespan = %v, want 5", rep.Makespan)
	}
	if rep.Blame.Total() != rep.Makespan {
		t.Fatalf("Blame.Total() = %v, want %v", rep.Blame.Total(), rep.Makespan)
	}
	if len(rep.Chain) == 0 || len(rep.Chain) > len(traces) {
		t.Fatalf("chain length %d out of range", len(rep.Chain))
	}
}

func TestComputeBlameEmpty(t *testing.T) {
	rep := ComputeBlame(nil)
	if rep.Tasks != 0 || rep.Makespan != 0 || len(rep.Chain) != 0 {
		t.Fatalf("empty report not empty: %+v", rep)
	}
}

func TestBlameReportWriteText(t *testing.T) {
	const s = int64(sim.Second)
	rep := BlameFromTraces([]*profiler.TaskTrace{mkTrace("t.0", 0, 0, 0, 0, 10*s, 10*s)})
	var b strings.Builder
	rep.WriteText(&b)
	out := b.String()
	for _, want := range []string{"makespan", "exec", "middleware", "critical chain"} {
		if !strings.Contains(out, want) {
			t.Errorf("scorecard missing %q:\n%s", want, out)
		}
	}
}

// decodeBlameScript reads four bytes per summary: submit, span, UID key and
// flags. Final is submit+span; flags&1 puts Final before Submit and flags&2
// leaves Submit unset, both invalid. The UID sorts by its key first, and
// its index suffix keeps it unique. flags&4 marks the task failed, and the
// span lands in blame category flags>>3 mod NumBlame.
func decodeBlameScript(script []byte) []TaskSummary {
	sums := make([]TaskSummary, len(script)/4)
	for i := range sums {
		submit, span, key, flags := sim.Time(script[4*i]), sim.Duration(script[4*i+1]), script[4*i+2], script[4*i+3]
		s := TaskSummary{UID: fmt.Sprintf("u%03d.%d", key, i), Submit: submit, Final: submit.Add(span), Failed: flags&4 != 0}
		if flags&1 != 0 {
			s.Final = submit.Add(-1 - span)
		}
		if flags&2 != 0 {
			s.Submit = -1
		}
		s.Blame[int(flags>>3)%int(NumBlame)] = span
		sums[i] = s
	}
	return sums
}

// decodeBlameTraces reads the same four bytes per task as traces. Submit,
// Final, the UID and flags&1, flags&2 and flags&4 mean what they mean for
// a summary. flags&8 leaves Final unset and stamps the final time as End
// only, as for a task that never reached a terminal state. Otherwise End
// is the final time, and the milestones in between sit at a quarter, half
// and three quarters of the span; flags&16, 32, 64 and 128 unset
// Scheduled, Launch, Start and End, so flags&(8|128) leaves no final time
// at all. A task with a span carries one edge, of kind key mod 11, from a
// quarter of its span to its final time.
func decodeBlameTraces(script []byte) []*profiler.TaskTrace {
	traces := make([]*profiler.TaskTrace, len(script)/4)
	for i := range traces {
		submit, span, key, flags := sim.Time(script[4*i]), sim.Duration(script[4*i+1]), script[4*i+2], script[4*i+3]
		final := submit.Add(span)
		if flags&1 != 0 {
			final = submit.Add(-1 - span)
		}
		tr := mkTrace(fmt.Sprintf("u%03d.%d", key, i), int64(submit), int64(submit.Add(span/4)),
			int64(submit.Add(span/2)), int64(submit.Add(3*span/4)), int64(final), int64(final))
		tr.Failed = flags&4 != 0
		if span > 0 {
			tr.AddEdge(profiler.CausalEdge{Kind: profiler.EdgeKind(key % 11), From: submit.Add(span / 4), To: final})
		}
		if flags&2 != 0 {
			tr.Submit = -1
		}
		if flags&8 != 0 {
			tr.Final = -1
		}
		for bit, stamp := range []*sim.Time{&tr.Scheduled, &tr.Launch, &tr.Start, &tr.End} {
			if flags&(16<<bit) != 0 {
				*stamp = -1
			}
		}
		traces[i] = tr
	}
	return traces
}

func FuzzBlameMatchesReference(f *testing.F) {
	// b encodes one summary.
	b := func(submit, span, key, flags byte) []byte { return []byte{submit, span, key, flags} }
	for _, seed := range [][]byte{
		nil,
		// Zero-span tasks sharing one timestamp (TestComputeBlameZeroSpanRun).
		slices.Concat(b(5, 0, 1, 0), b(5, 0, 2, 0), b(5, 0, 3, 0), b(0, 5, 4, 0)),
		// Equal Final with different UIDs, listed against UID order.
		slices.Concat(b(0, 10, 200, 0), b(2, 8, 100, 8), b(10, 10, 50, 16)),
		// A submit equal to another task's final: a chain with no gaps.
		slices.Concat(b(0, 10, 1, 0), b(10, 10, 2, 4), b(20, 5, 3, 0), b(3, 2, 4, 0)),
		// Unset and inverted stamps beside valid ones.
		slices.Concat(b(1, 2, 1, 2), b(9, 3, 2, 1), b(4, 4, 3, 0), b(0, 0, 4, 6)),
		// Only invalid summaries.
		slices.Concat(b(1, 2, 1, 2), b(9, 3, 2, 1)),
		// End-only finals, one of them last, beside a trace with no Final
		// and no End and traces with unset milestones.
		slices.Concat(b(0, 10, 1, 8), b(2, 20, 2, 8+16), b(4, 3, 3, 8+128), b(1, 6, 4, 16+32+64), b(5, 9, 5, 128)),
	} {
		f.Add(seed)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 32; i++ {
		script := make([]byte, 4*(1+rng.IntN(60)))
		for j := range script {
			script[j] = byte(rng.UintN(32)) // small values: many equal instants
		}
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		sums := decodeBlameScript(script)
		kept := slices.Clone(sums)
		got, want := ComputeBlame(sums), refComputeBlame(kept)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ComputeBlame = %+v, reference %+v", got, want)
		}
		if !reflect.DeepEqual(sums, kept) {
			t.Error("ComputeBlame modified its input")
		}
		// The traces' report, summarizing only the chain, against the
		// reference over every trace's summary.
		traces := decodeBlameTraces(script)
		traceSums := make([]TaskSummary, len(traces))
		for i, tr := range traces {
			traceSums[i] = Summarize(tr)
		}
		if got, want := BlameFromTraces(traces), refComputeBlame(traceSums); !reflect.DeepEqual(got, want) {
			t.Errorf("BlameFromTraces = %+v, reference %+v", got, want)
		}
		// The summaries' spans double as coverage intervals.
		var ivs []iv
		for _, s := range sums {
			if s.Final > s.Submit {
				ivs = append(ivs, iv{s.Submit, s.Final})
			}
		}
		if got, want := coverage(slices.Clone(ivs)), refCoverage(ivs); got != want {
			t.Errorf("coverage = %v, reference %v", got, want)
		}
	})
}
