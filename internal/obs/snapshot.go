package obs

// The metrics snapshot: one run's counters and gauges, keyed by their
// declared names. Components keep their own native counters and the
// session's snapshot Puts them here, so a snapshot is the one place metric
// keys are created.
//
// Metric name catalogue (see DESIGN.md §6): "sim.*" engine counters,
// "launch.*" placement machinery, "agent.*" dispatch pipeline, "data.*"
// staging channels, "service.*" inference endpoints.

import (
	"fmt"
	"sort"
	"strings"
)

// GaugeStat is a gauge summary in a snapshot.
type GaugeStat struct {
	Last float64 `json:"last"`
	Max  float64 `json:"max"`
}

// Snapshot is a point-in-time, JSON-ready export of a run's metrics — the
// form experiment reports embed. encoding/json writes its fields in
// declaration order and its map keys sorted, so two snapshots of the same
// run marshal to identical bytes.
type Snapshot struct {
	Counters map[string]float64   `json:"counters,omitempty"`
	Gauges   map[string]GaugeStat `json:"gauges,omitempty"`
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Counters: make(map[string]float64),
		Gauges:   make(map[string]GaugeStat),
	}
}

// Put merges one counter-style value into the snapshot.
func (s *Snapshot) Put(name string, v float64) { s.Counters[name] = v }

// PutGauge merges one gauge summary into the snapshot.
func (s *Snapshot) PutGauge(name string, last, max float64) {
	s.Gauges[name] = GaugeStat{Last: last, Max: max}
}

// Render formats the snapshot as a sorted text table for reports.
func (s *Snapshot) Render() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-42s %14.0f\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g := s.Gauges[n]
		fmt.Fprintf(&b, "%-42s last=%g max=%g\n", n, g.Last, g.Max)
	}
	return b.String()
}
