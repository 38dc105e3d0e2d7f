package sim

// Wall-clock phase identifiers for the self-profiler hook. They live here —
// at the bottom of the import graph — so every layer that wants to report a
// phase sample (engine dispatch, sharded exchange, profiler sink folds,
// placement) can do so without importing the observability package; the
// hook's implementation (internal/obs.SelfProfiler) lives above.
const (
	// PhaseDispatch is event-dispatch wall time: the engine's Run loop, or
	// one window of the sharded engine.
	PhaseDispatch = iota
	// PhaseExchange is cross-partition outbox exchange at a window's end.
	PhaseExchange
	// PhaseSinkFold is time spent inside trace-sink callbacks (folds,
	// spills, blame accumulation).
	PhaseSinkFold
	// PhasePlacement is placer wall time (Place and queue selection).
	PhasePlacement
	// NumPhases sizes per-phase accumulator arrays.
	NumPhases
)

// PhaseName returns a short stable name for a phase constant; it is the
// metric-name component used by the self-profiler.
func PhaseName(phase int) string {
	switch phase {
	case PhaseDispatch:
		return "dispatch"
	case PhaseExchange:
		return "exchange"
	case PhaseSinkFold:
		return "sinkfold"
	case PhasePlacement:
		return "placement"
	}
	return "unknown"
}

// PhaseFunc receives one wall-clock sample: ns nanoseconds spent in phase.
type PhaseFunc func(phase int, ns int64)
