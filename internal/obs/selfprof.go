package obs

// SelfProfiler: wall-clock phase accounting for the simulator itself. The
// simulation engine, the sharded engine's window loop, trace sinks and the
// placer report nanosecond samples through the sim.PhaseFunc hook (nil-safe
// at every call site, so golden fingerprints are untouched when profiling
// is off); the profiler keeps per-phase totals, sample counts and
// high-waters behind atomics, so sessions running on several goroutines
// may share one.

import (
	"sync/atomic"

	"rpgo/internal/sim"
)

// phaseAcc is one phase's accumulator set.
type phaseAcc struct {
	ns      atomic.Int64
	samples atomic.Uint64
	maxNs   atomic.Int64
}

// SelfProfiler accumulates wall-clock phase samples. The zero value is
// ready to use; a nil *SelfProfiler is inert (Observe no-ops).
type SelfProfiler struct {
	acc [sim.NumPhases]phaseAcc
}

// NewSelfProfiler returns an empty profiler.
func NewSelfProfiler() *SelfProfiler { return &SelfProfiler{} }

// Observe records one sample of ns nanoseconds for phase. It is the
// sim.PhaseFunc implementation and is safe for concurrent use.
func (p *SelfProfiler) Observe(phase int, ns int64) {
	if p == nil || phase < 0 || phase >= sim.NumPhases {
		return
	}
	a := &p.acc[phase]
	a.ns.Add(ns)
	a.samples.Add(1)
	for {
		cur := a.maxNs.Load()
		if ns <= cur || a.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// TotalNs returns the summed wall-clock nanoseconds recorded for phase.
func (p *SelfProfiler) TotalNs(phase int) int64 {
	if p == nil || phase < 0 || phase >= sim.NumPhases {
		return 0
	}
	return p.acc[phase].ns.Load()
}

// Samples returns how many samples were recorded for phase.
func (p *SelfProfiler) Samples(phase int) uint64 {
	if p == nil || phase < 0 || phase >= sim.NumPhases {
		return 0
	}
	return p.acc[phase].samples.Load()
}

// MaxNs returns the largest single sample recorded for phase.
func (p *SelfProfiler) MaxNs(phase int) int64 {
	if p == nil || phase < 0 || phase >= sim.NumPhases {
		return 0
	}
	return p.acc[phase].maxNs.Load()
}

// Merge writes the profiler's state into a snapshot as
// selfprof.<phase>.{ns_total,samples,max_ns} counters. Phases with no
// samples are omitted so profiler-off snapshots carry no selfprof keys.
func (p *SelfProfiler) Merge(s *Snapshot) {
	if p == nil {
		return
	}
	for ph := 0; ph < sim.NumPhases; ph++ {
		n := p.Samples(ph)
		if n == 0 {
			continue
		}
		name := sim.PhaseName(ph)
		s.Put("selfprof."+name+".ns_total", float64(p.TotalNs(ph)))
		s.Put("selfprof."+name+".samples", float64(n))
		s.Put("selfprof."+name+".max_ns", float64(p.MaxNs(ph)))
	}
}
