package analytics

// Causal blame decomposition: the why-was-this-slow layer over the causal
// edges the simulator emits (profiler.CausalEdge). Summarize collapses one
// task trace into an exact per-category time budget; ComputeBlame walks the
// causal chain backward from campaign end and decomposes the makespan into
// blame categories whose sum equals the makespan exactly (all arithmetic is
// int64 microseconds — no float drift).

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"rpgo/internal/profiler"
	"rpgo/internal/sim"
)

// BlameCategory is one bucket of the makespan decomposition.
type BlameCategory int

const (
	// BlameExec is time a task body actually computed.
	BlameExec BlameCategory = iota
	// BlameQueue is plain FIFO wait in a backend queue (placement never
	// refused the task).
	BlameQueue
	// BlameStarve is queue wait after the placer denied the task at least
	// once for lack of free slots.
	BlameStarve
	// BlameData is time blocked on data movement: staging transfers, rides
	// on coalesced transfers, and output write-back.
	BlameData
	// BlameService is time a task body blocked on inference responses.
	BlameService
	// BlameFailure is failure-handling overhead: dead attempts' run time
	// lost to a crash or node loss, retry backoffs, and terminal failure
	// windows (EdgeFailure / EdgeRetry).
	BlameFailure
	// BlameCheckpoint is time a task body blocked on checkpoint traffic:
	// periodic checkpoint writes and post-relocation restore stage-ins.
	BlameCheckpoint
	// BlameMiddleware is everything else: client pipe, scheduler hops,
	// executor serialization, spawn latency, teardown, and inter-task
	// gaps on the critical chain.
	BlameMiddleware

	// NumBlame is the category count (array sizing).
	NumBlame
)

var blameNames = [NumBlame]string{
	BlameExec:       "exec",
	BlameQueue:      "queue",
	BlameStarve:     "starve",
	BlameData:       "data",
	BlameService:    "service",
	BlameFailure:    "failure",
	BlameCheckpoint: "checkpoint",
	BlameMiddleware: "middleware",
}

func (c BlameCategory) String() string {
	if c >= 0 && c < NumBlame {
		return blameNames[c]
	}
	return "unknown"
}

// BlameVec is one per-category time budget.
type BlameVec [NumBlame]sim.Duration

// Total returns the vector's sum.
func (v *BlameVec) Total() sim.Duration {
	var t sim.Duration
	for _, d := range v {
		t += d
	}
	return t
}

// Add accumulates another vector.
func (v *BlameVec) Add(o BlameVec) {
	for i := range v {
		v[i] += o[i]
	}
}

// TaskSummary is the compact causal digest of one task: its span endpoints
// and an exact decomposition of that span into blame categories. It is what
// the streaming blame sink keeps per task — O(tasks) small records instead
// of full traces.
type TaskSummary struct {
	UID      string
	Workflow string
	Backend  string
	Submit   sim.Time
	Final    sim.Time
	Failed   bool
	// Blame decomposes [Submit, Final] exactly: Blame.Total() ==
	// Final-Submit for every valid summary.
	Blame BlameVec
	// Dominant is the single longest causal wait (kind name and ref) —
	// the first thing to look at when this task is a straggler.
	Dominant     string
	DominantRef  string
	DominantWait sim.Duration
}

// Span returns the summary's submit→final duration.
func (s *TaskSummary) Span() sim.Duration { return s.Final.Sub(s.Submit) }

// Valid reports whether the summary spans real timestamps.
func (s *TaskSummary) Valid() bool { return validSpan(s.Submit, s.Final) }

// validSpan reports whether a task submitted at submit and final at final
// spans real timestamps.
func validSpan(submit, final sim.Time) bool { return submit >= 0 && final >= submit }

// traceFinal is the end of a trace's span: Final, or End for a trace that
// never reached a terminal state.
func traceFinal(t *profiler.TaskTrace) sim.Time {
	if t.Final < 0 {
		return t.End
	}
	return t.Final
}

// iv is one half-open blocked interval used by the coverage math.
type iv struct{ lo, hi sim.Time }

// coverage returns the total length covered by the union of the intervals.
// It sorts in place. The typed sort keeps ivs, and so Summarize's scratch
// array, off the heap.
func coverage(ivs []iv) sim.Duration {
	if len(ivs) == 0 {
		return 0
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var total sim.Duration
	cur := ivs[0]
	for _, v := range ivs[1:] {
		if v.lo <= cur.hi {
			if v.hi > cur.hi {
				cur.hi = v.hi
			}
			continue
		}
		total += cur.hi.Sub(cur.lo)
		cur = v
	}
	return total + cur.hi.Sub(cur.lo)
}

// clipKinds appends the [lo,hi]-clipped intervals of the matching edge
// kinds to dst.
func clipKinds(dst []iv, edges []profiler.CausalEdge, lo, hi sim.Time, kinds ...profiler.EdgeKind) []iv {
	for _, e := range edges {
		match := false
		for _, k := range kinds {
			if e.Kind == k {
				match = true
				break
			}
		}
		if !match {
			continue
		}
		a, b := e.From, e.To
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			dst = append(dst, iv{a, b})
		}
	}
	return dst
}

// clampUp returns ts if set and ≥ floor, otherwise floor — the milestone
// chain of a trace collapses unset (negative) timestamps onto the previous
// milestone so every window is well-formed.
func clampUp(ts, floor sim.Time) sim.Time {
	if ts < floor {
		return floor
	}
	return ts
}

// Summarize collapses one task trace into its causal digest. The same
// function backs the in-memory and the streaming blame paths, so the two
// reports agree by construction.
func Summarize(t *profiler.TaskTrace) TaskSummary {
	var s TaskSummary
	summarize(&s, t)
	return s
}

// summarize writes t's digest into s, which must be zero. BlameFromTraces
// points it at one scratch summary, which each task on the chain reuses.
func summarize(s *TaskSummary, t *profiler.TaskTrace) {
	s.UID, s.Workflow, s.Backend = t.UID, t.Workflow, t.Backend
	s.Submit, s.Final, s.Failed = t.Submit, traceFinal(t), t.Failed
	if !s.Valid() {
		return
	}
	// Monotone milestone chain; unset stages collapse to zero-width.
	s0 := t.Submit
	s1 := clampUp(t.Scheduled, s0)
	s2 := clampUp(t.Launch, s1)
	s3 := clampUp(t.Start, s2)
	s4 := clampUp(t.End, s3)
	s5 := clampUp(s.Final, s4)
	// Edges can only shrink a window's residual, never exceed it, because
	// every interval is clipped and unioned.
	var scratch [8]iv

	// submit → scheduled: client pipe, shared-tier pre-staging, scheduler
	// queue. Staging edges here are tier pre-loads → data; the rest is
	// middleware.
	data := coverage(clipKinds(scratch[:0], t.Edges, s0, s1, profiler.EdgeStage, profiler.EdgeTransfer))
	s.Blame[BlameData] += data
	s.Blame[BlameMiddleware] += s1.Sub(s0) - data

	// scheduled → launch: executor hand-off — and, for retried tasks, every
	// earlier attempt (their queue waits, run time and backoffs live here
	// because Launch is re-stamped per dispatch). Failure-handling overhead
	// (dead attempts' run windows and retry backoffs) shadows everything;
	// queue/starve edges of earlier attempts keep their categories where
	// they don't overlap it.
	fail := clipKinds(scratch[:0], t.Edges, s1, s2, profiler.EdgeFailure, profiler.EdgeRetry)
	dFail := coverage(fail)
	withStarve := clipKinds(fail, t.Edges, s1, s2, profiler.EdgeStarved)
	dStarve := coverage(withStarve)
	both := clipKinds(withStarve, t.Edges, s1, s2, profiler.EdgeQueued)
	dBoth := coverage(both)
	s.Blame[BlameFailure] += dFail
	s.Blame[BlameStarve] += dStarve - dFail
	s.Blame[BlameQueue] += dBoth - dStarve
	s.Blame[BlameMiddleware] += s2.Sub(s1) - dBoth

	// launch → start: the backend queue and process spawn. Starvation
	// shadows plain queueing where both cover; the residual (RPC, spawn
	// latency) is middleware.
	starved := clipKinds(scratch[:0], t.Edges, s2, s3, profiler.EdgeStarved)
	dStarve = coverage(starved)
	both = clipKinds(starved, t.Edges, s2, s3, profiler.EdgeQueued)
	dBoth = coverage(both)
	s.Blame[BlameStarve] += dStarve
	s.Blame[BlameQueue] += dBoth - dStarve
	s.Blame[BlameMiddleware] += s3.Sub(s2) - dBoth

	// start → end: the task body. Stage-in edges and the output write-back
	// tail are data; checkpoint traffic (minus any data overlap) is
	// checkpoint; service blocks (minus both) are service; what remains is
	// real execution.
	dataIv := clipKinds(scratch[:0], t.Edges, s3, s4, profiler.EdgeStage, profiler.EdgeTransfer)
	if t.StageOut > 0 {
		lo := s4.Add(-t.StageOut)
		if lo < s3 {
			lo = s3
		}
		if s4 > lo {
			dataIv = append(dataIv, iv{lo, s4})
		}
	}
	dData := coverage(dataIv)
	withCkpt := clipKinds(dataIv, t.Edges, s3, s4, profiler.EdgeCheckpoint)
	dCkpt := coverage(withCkpt)
	both = clipKinds(withCkpt, t.Edges, s3, s4, profiler.EdgeService)
	dBoth = coverage(both)
	s.Blame[BlameData] += dData
	s.Blame[BlameCheckpoint] += dCkpt - dData
	s.Blame[BlameService] += dBoth - dCkpt
	s.Blame[BlameExec] += s4.Sub(s3) - dBoth

	// end → final: the agent's finalization (outputs were already written
	// by the task body's epilogue) — except the terminal failure window of
	// a task that exhausted its retries, which lands here because its last
	// attempt never stamped End.
	fail = clipKinds(scratch[:0], t.Edges, s4, s5, profiler.EdgeFailure)
	dFail = coverage(fail)
	s.Blame[BlameFailure] += dFail
	s.Blame[BlameMiddleware] += s5.Sub(s4) - dFail

	// Residual from Final beyond the milestone chain (never happens with
	// monotone stamps, but keep the invariant airtight).
	s.Blame[BlameMiddleware] += s.Final.Sub(s5)

	for _, e := range t.Edges {
		if w := e.Wait(); w > s.DominantWait {
			s.DominantWait = w
			s.Dominant = e.Kind.String()
			s.DominantRef = e.Ref
		}
	}
}

// ChainLink is one hop of the critical chain, latest first.
type ChainLink struct {
	UID string
	// From/To is the span the task contributes to the chain; Gap is the
	// idle time between this task's submit and its predecessor's final
	// (attributed to middleware).
	From sim.Time
	To   sim.Time
	Gap  sim.Duration
}

// Straggler is one flagged anomalous task with its dominant causal wait.
type Straggler struct {
	UID      string
	Workflow string
	Span     sim.Duration
	// Why explains the flag ("12.3x p99", "5.1 sigma").
	Why         string
	Dominant    string
	DominantRef string
}

// BlameReport is the makespan decomposition of one run.
type BlameReport struct {
	Tasks    int
	Failed   int
	Start    sim.Time
	End      sim.Time
	Makespan sim.Duration
	// Blame decomposes Makespan exactly: Blame.Total() == Makespan.
	Blame BlameVec
	// Chain is the critical chain, campaign end backward.
	Chain []ChainLink
	// Stragglers are the online detector's flagged tasks (streaming sink
	// only; empty for plain in-memory reports unless a detector ran).
	Stragglers []Straggler
}

// ComputeBlame walks the causal chain backward from the campaign's last
// terminal event and decomposes the makespan. The chain steps from each
// task to the latest task that finished at or before its submit; the gap
// between them — time no chain task was in flight — is middleware (client
// pipe and workload structure). The category sums telescope to the makespan
// exactly.
//
// It sorts an index of the valid summaries by (Final, UID), a total order
// because UIDs are unique, and leaves sums untouched.
func ComputeBlame(sums []TaskSummary) BlameReport {
	var rep BlameReport
	order := make([]int32, 0, len(sums))
	for i := range sums {
		if s := &sums[i]; s.Valid() {
			order = append(order, int32(i))
			rep.count(s.Submit, s.Failed)
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		return compareFinalUID(sums[a].Final, sums[a].UID, sums[b].Final, sums[b].UID)
	})
	rep.walkChain(order,
		func(i int32) sim.Time { return sums[i].Final },
		func(i int32) *TaskSummary { return &sums[i] })
	return rep
}

// BlameFromTraces is the in-memory path: the report ComputeBlame makes of
// the traces' summaries. It sorts an index of the traces by (final, UID)
// and summarizes only the tasks on the critical chain, whose blame the
// report adds up; the streaming sink (internal/obs.Blame) summarizes every
// task as it ends and calls ComputeBlame. Both share Summarize and the
// chain walk, so they produce the identical report.
func BlameFromTraces(traces []*profiler.TaskTrace) BlameReport {
	var rep BlameReport
	order := make([]int32, 0, len(traces))
	for i, t := range traces {
		if validSpan(t.Submit, traceFinal(t)) {
			order = append(order, int32(i))
			rep.count(t.Submit, t.Failed)
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		x, y := traces[a], traces[b]
		return compareFinalUID(traceFinal(x), x.UID, traceFinal(y), y.UID)
	})
	var s TaskSummary
	rep.walkChain(order,
		func(i int32) sim.Time { return traceFinal(traces[i]) },
		func(i int32) *TaskSummary {
			s = TaskSummary{}
			summarize(&s, traces[i])
			return &s
		})
	return rep
}

// compareFinalUID orders tasks by final time, then UID.
func compareFinalUID(finalA sim.Time, uidA string, finalB sim.Time, uidB string) int {
	if c := cmp.Compare(finalA, finalB); c != 0 {
		return c
	}
	return strings.Compare(uidA, uidB)
}

// count adds one valid task, submitted at submit, to the report's task and
// failure counts and its start.
func (r *BlameReport) count(submit sim.Time, failed bool) {
	if r.Tasks == 0 || submit < r.Start {
		r.Start = submit
	}
	r.Tasks++
	if failed {
		r.Failed++
	}
}

// walkChain is the critical-chain walk both blame paths share. order lists
// the valid tasks, already counted, by (final, UID); final(i) returns task
// i's final time and summary(i) its digest, which the walk asks for only
// of the tasks on the chain. It sets the report's end and makespan, adds
// each chain task's blame and the gaps between them, and records the chain,
// latest first.
func (r *BlameReport) walkChain(order []int32, final func(int32) sim.Time, summary func(int32) *TaskSummary) {
	if len(order) == 0 {
		return
	}
	r.End = final(order[len(order)-1])
	r.Makespan = r.End.Sub(r.Start)
	cur := len(order) - 1
	for {
		s := summary(order[cur])
		r.Blame.Add(s.Blame)
		link := ChainLink{UID: s.UID, From: s.Submit, To: s.Final}
		// Predecessor: the rightmost task before cur with Final ≤
		// cur.Submit. Searching only below cur guarantees termination
		// through runs of zero-span tasks sharing one timestamp.
		j := sort.Search(cur, func(k int) bool { return final(order[k]) > s.Submit }) - 1
		prev := r.Start
		if j >= 0 {
			prev = final(order[j])
		}
		link.Gap = s.Submit.Sub(prev)
		r.Blame[BlameMiddleware] += link.Gap
		r.Chain = append(r.Chain, link)
		if j < 0 {
			return
		}
		cur = j
	}
}

// WriteText renders the report as the scorecard rptrace and the experiment
// runners print.
func (r *BlameReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "tasks     %d (%d failed)\n", r.Tasks, r.Failed)
	fmt.Fprintf(w, "makespan  %.6fs\n", r.Makespan.Seconds())
	fmt.Fprintf(w, "blame decomposition (sums to makespan):\n")
	for c := BlameCategory(0); c < NumBlame; c++ {
		pct := 0.0
		if r.Makespan > 0 {
			pct = 100 * float64(r.Blame[c]) / float64(r.Makespan)
		}
		fmt.Fprintf(w, "  %-11s %14.6fs  %5.1f%%\n", c.String(), r.Blame[c].Seconds(), pct)
	}
	if len(r.Chain) > 0 {
		n := len(r.Chain)
		fmt.Fprintf(w, "critical chain (%d links, latest first):\n", n)
		max := n
		if max > 10 {
			max = 10
		}
		for _, l := range r.Chain[:max] {
			fmt.Fprintf(w, "  %-24s [%.6f → %.6f]s  gap %.6fs\n",
				l.UID, l.From.Seconds(), l.To.Seconds(), l.Gap.Seconds())
		}
		if n > max {
			fmt.Fprintf(w, "  … %d more\n", n-max)
		}
	}
	for _, s := range r.Stragglers {
		fmt.Fprintf(w, "straggler %-24s span %.6fs (%s)", s.UID, s.Span.Seconds(), s.Why)
		if s.Dominant != "" {
			fmt.Fprintf(w, " dominant %s", s.Dominant)
			if s.DominantRef != "" {
				fmt.Fprintf(w, " %s", s.DominantRef)
			}
		}
		fmt.Fprintln(w)
	}
}
