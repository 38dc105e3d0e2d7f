package obs

// The Blame sink: the streaming half of the critical-path engine. It folds
// each terminal task into a compact causal digest (analytics.TaskSummary —
// O(tasks) small records, no retained traces) and runs the online
// straggler detector over per-workflow duration distributions (Hist
// quantiles + Welford moments). Report() then walks the causal chain with
// the same analytics.ComputeBlame the in-memory path uses, so the two
// reports agree by construction.

import (
	"math"
	"sort"

	"rpgo/internal/analytics"
	"rpgo/internal/profiler"
)

// Straggler detector: flag tasks more than sigmaK standard deviations above
// their workflow's mean span, or more than p99Mult times its p99, once the
// workflow has seen StragglerWarmup tasks; keep the maxStragglers longest.
const (
	sigmaK          = 3.0
	p99Mult         = 3.0
	StragglerWarmup = 32
	maxStragglers   = 16
)

// wfStats is one workflow's online span distribution.
type wfStats struct {
	hist Hist
	// Welford moments over span seconds.
	n    int
	mean float64
	m2   float64
}

func (w *wfStats) observe(v float64) {
	w.hist.Observe(v)
	w.n++
	d := v - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (v - w.mean)
}

func (w *wfStats) sigma() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// Blame is a streaming TraceSink accumulating causal digests for the
// critical-path decomposition. The zero value is not ready; use NewBlame.
type Blame struct {
	sums []analytics.TaskSummary

	wf map[string]*wfStats

	stragglers []analytics.Straggler
}

// NewBlame returns an empty blame sink.
func NewBlame() *Blame {
	return &Blame{wf: make(map[string]*wfStats)}
}

// RetainTraces switches the profiler to streaming mode.
func (*Blame) RetainTraces() bool { return false }

// Flush implements TraceSink (nothing buffered).
func (*Blame) Flush() error { return nil }

// OnTransfer implements TraceSink; transfers contribute through the causal
// edges already on task records.
func (*Blame) OnTransfer(profiler.TransferTrace) {}

// OnRequest implements TraceSink; request waits surface as task service
// edges.
func (*Blame) OnRequest(profiler.RequestTrace) {}

// OnTask folds one terminal task: summarize while the full trace is still
// alive (streaming mode drops it right after), then test for anomaly
// against the task's workflow distribution.
func (b *Blame) OnTask(t *profiler.TaskTrace) {
	s := analytics.Summarize(t)
	b.sums = append(b.sums, s)
	if !s.Valid() {
		return
	}
	key := s.Workflow
	w := b.wf[key]
	if w == nil {
		w = &wfStats{}
		b.wf[key] = w
	}
	span := s.Span().Seconds()
	if w.n >= StragglerWarmup {
		why := ""
		if sig := w.sigma(); sig > 0 && span > w.mean+sigmaK*sig {
			why = "sigma"
		} else if p99 := w.hist.Quantile(0.99); p99 > 0 && span > p99Mult*p99 {
			why = "p99"
		}
		if why != "" {
			b.flag(s, span, why, w)
		}
	}
	w.observe(span)
}

// flag records a straggler, keeping the maxStragglers longest spans with a
// deterministic (span desc, UID asc) order.
func (b *Blame) flag(s analytics.TaskSummary, span float64, why string, w *wfStats) {
	var detail string
	switch why {
	case "sigma":
		sig := w.sigma()
		detail = formatWhy((span-w.mean)/sig, "sigma")
	case "p99":
		detail = formatWhy(span/w.hist.Quantile(0.99), "x p99")
	}
	b.stragglers = append(b.stragglers, analytics.Straggler{
		UID:         s.UID,
		Workflow:    s.Workflow,
		Span:        s.Span(),
		Why:         detail,
		Dominant:    s.Dominant,
		DominantRef: s.DominantRef,
	})
	sort.Slice(b.stragglers, func(i, j int) bool {
		if b.stragglers[i].Span != b.stragglers[j].Span {
			return b.stragglers[i].Span > b.stragglers[j].Span
		}
		return b.stragglers[i].UID < b.stragglers[j].UID
	})
	if len(b.stragglers) > maxStragglers {
		b.stragglers = b.stragglers[:maxStragglers]
	}
}

func formatWhy(ratio float64, unit string) string {
	// Avoid fmt on the hot path? Flagging is rare; fmt is fine — but keep
	// it tiny and allocation-predictable.
	return trimFloat(ratio) + " " + unit
}

// trimFloat renders a ratio with one decimal, no fmt import churn.
func trimFloat(v float64) string {
	n := int(v*10 + 0.5)
	if n < 0 {
		n = 0
	}
	whole, frac := n/10, n%10
	return itoa(whole) + "." + string(rune('0'+frac))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Tasks returns the number of folded task digests.
func (b *Blame) Tasks() int { return len(b.sums) }

// Summaries returns the accumulated digests (the streaming input of
// analytics.ComputeBlame).
func (b *Blame) Summaries() []analytics.TaskSummary { return b.sums }

// Stragglers returns the detector's flags, longest span first.
func (b *Blame) Stragglers() []analytics.Straggler { return b.stragglers }

// Report walks the causal chain and returns the makespan decomposition,
// with the online stragglers attached.
func (b *Blame) Report() analytics.BlameReport {
	rep := analytics.ComputeBlame(b.sums)
	rep.Stragglers = append([]analytics.Straggler(nil), b.stragglers...)
	return rep
}
