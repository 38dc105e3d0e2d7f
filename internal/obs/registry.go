package obs

// The metrics registry: named counters and gauges instrumented across the
// runtime stack. The hot path is lock-free and allocation-free —
// instruments are plain structs mutated by the single-threaded simulation,
// call sites cache instrument pointers once, and gauges coalesce their time
// series per configurable sim-time tick so update-driven sampling cannot
// grow unbounded within a tick. A nil *Registry is fully usable: every
// accessor returns a shared dummy instrument, so instrumented components
// need no nil checks.
//
// Metric name catalogue (see DESIGN.md §6): "sim.*" engine counters,
// "launch.*" placement machinery, "agent.*" dispatch pipeline, "data.*"
// staging channels, "service.*" inference endpoints.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"rpgo/internal/metrics"
	"rpgo/internal/sim"
)

// DefaultTick is the gauge time-series resolution when none is configured.
const DefaultTick = 10 * sim.Second

// Counter is a monotone event count.
type Counter struct {
	name string
	v    uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a sampled instantaneous value with a lifetime maximum and a
// tick-coalesced time series: within one tick only the latest sample is
// kept, so series length is bounded by simulated time, not update rate.
// The newest sample rides as a pending point that commits when its tick
// bucket closes; Series flushes it, so the final sample of a run is always
// part of the exported timeline.
type Gauge struct {
	name    string
	tick    sim.Duration
	v       float64
	max     float64
	last    int64 // tick bucket of the pending point
	pend    metrics.Point
	hasPend bool
	points  []metrics.Point // committed (closed-bucket) points
}

// Set records the gauge value at a sim time.
func (g *Gauge) Set(at sim.Time, v float64) {
	g.v = v
	if v > g.max {
		g.max = v
	}
	if g.tick <= 0 {
		return // dummy instrument: no series
	}
	b := int64(at) / int64(g.tick)
	if g.hasPend && b != g.last {
		g.points = append(g.points, g.pend)
	}
	g.last = b
	g.pend = metrics.Point{T: at, V: v}
	g.hasPend = true
}

// Add shifts the gauge by dv at a sim time.
func (g *Gauge) Add(at sim.Time, dv float64) { g.Set(at, g.v+dv) }

// Value returns the latest sample; Max the lifetime maximum.
func (g *Gauge) Value() float64 { return g.v }

// Max returns the largest value ever set.
func (g *Gauge) Max() float64 { return g.max }

// Series returns the tick-coalesced timeline, pending point included. The
// returned points never alias the gauge's committed storage when a pending
// point exists, so callers may hold the slice across further Sets.
func (g *Gauge) Series() metrics.Series {
	pts := g.points
	if g.hasPend {
		pts = append(pts[:len(pts):len(pts)], g.pend)
	}
	return metrics.Series{Name: g.name, Points: pts}
}

// Registry holds a session's instruments. All methods are nil-safe.
type Registry struct {
	tick     sim.Duration
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns a registry whose gauge series sample at the given
// sim-time tick (<=0 uses DefaultTick).
func NewRegistry(tick sim.Duration) *Registry {
	if tick <= 0 {
		tick = DefaultTick
	}
	return &Registry{
		tick:     tick,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Tick returns the gauge sampling resolution.
func (r *Registry) Tick() sim.Duration {
	if r == nil {
		return 0
	}
	return r.tick
}

// Counter returns (creating if needed) the named counter. On a nil
// registry it returns an unregistered dummy.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge. On a nil registry it
// returns an unregistered dummy that keeps no series.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name, tick: r.tick}
		r.gauges[name] = g
	}
	return g
}

// GaugeStat is a gauge summary in a snapshot.
type GaugeStat struct {
	Last float64 `json:"last"`
	Max  float64 `json:"max"`
}

// SeriesPoint is one gauge sample in a snapshot (seconds, value).
type SeriesPoint struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// Snapshot is a point-in-time, JSON-ready export of a registry — the form
// experiment reports embed. Components without
// registry access merge their native counters in through Put.
type Snapshot struct {
	TickSeconds float64                  `json:"tick_seconds,omitempty"`
	Counters    map[string]float64       `json:"counters,omitempty"`
	Gauges      map[string]GaugeStat     `json:"gauges,omitempty"`
	Series      map[string][]SeriesPoint `json:"series,omitempty"`
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Counters: make(map[string]float64),
		Gauges:   make(map[string]GaugeStat),
		Series:   make(map[string][]SeriesPoint),
	}
}

// Put merges one counter-style value into the snapshot.
func (s *Snapshot) Put(name string, v float64) { s.Counters[name] = v }

// PutGauge merges one gauge summary into the snapshot.
func (s *Snapshot) PutGauge(name string, last, max float64) {
	s.Gauges[name] = GaugeStat{Last: last, Max: max}
}

// maxSnapshotSeriesPoints bounds each exported gauge series.
const maxSnapshotSeriesPoints = 512

// Snapshot exports every instrument. Nil registries export an empty
// snapshot (callers merge native counters into it regardless).
func (r *Registry) Snapshot() *Snapshot {
	s := NewSnapshot()
	if r == nil {
		return s
	}
	s.TickSeconds = r.tick.Seconds()
	for name, c := range r.counters {
		s.Counters[name] = float64(c.v)
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeStat{Last: g.v, Max: g.max}
		ser := g.Series()
		ds := ser
		if len(ser.Points) > maxSnapshotSeriesPoints {
			// Downsample keeps each stride's maximum, which can discard the
			// run's final sample. Leave one slot and re-attach the final raw
			// point so the exported series always ends on the last value.
			ds = metrics.Downsample(ser, maxSnapshotSeriesPoints-1)
			fin := ser.Points[len(ser.Points)-1]
			if m := len(ds.Points); m == 0 || ds.Points[m-1].T != fin.T {
				ds.Points = append(ds.Points, fin)
			}
		}
		pts := make([]SeriesPoint, len(ds.Points))
		for i, p := range ds.Points {
			pts[i] = SeriesPoint{T: p.T.Seconds(), V: p.V}
		}
		s.Series[name] = pts
	}
	return s
}

// MarshalJSON emits the snapshot with a fixed field order and explicitly
// sorted map keys, so two snapshots of the same run marshal to identical
// bytes — snapshot diffs and CI artifacts are byte-deterministic by
// construction, not by encoder implementation detail. Field names and
// omit-empty behaviour match the struct tags, so the standard decoder
// reads it back unchanged.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	fields := 0
	put := func(name string, raw []byte) {
		if fields > 0 {
			b.WriteByte(',')
		}
		fields++
		key, _ := json.Marshal(name)
		b.Write(key)
		b.WriteByte(':')
		b.Write(raw)
	}
	putMap := func(name string, keys []string, value func(k string) any) error {
		if len(keys) == 0 {
			return nil
		}
		sort.Strings(keys)
		var mb bytes.Buffer
		mb.WriteByte('{')
		for i, k := range keys {
			raw, err := json.Marshal(value(k))
			if err != nil {
				return err
			}
			if i > 0 {
				mb.WriteByte(',')
			}
			kk, _ := json.Marshal(k)
			mb.Write(kk)
			mb.WriteByte(':')
			mb.Write(raw)
		}
		mb.WriteByte('}')
		put(name, mb.Bytes())
		return nil
	}
	keysOf := func(n int, each func(add func(string))) []string {
		ks := make([]string, 0, n)
		each(func(k string) { ks = append(ks, k) })
		return ks
	}

	if s.TickSeconds != 0 {
		raw, err := json.Marshal(s.TickSeconds)
		if err != nil {
			return nil, err
		}
		put("tick_seconds", raw)
	}
	err := putMap("counters", keysOf(len(s.Counters), func(add func(string)) {
		for k := range s.Counters {
			add(k)
		}
	}), func(k string) any { return s.Counters[k] })
	if err != nil {
		return nil, err
	}
	err = putMap("gauges", keysOf(len(s.Gauges), func(add func(string)) {
		for k := range s.Gauges {
			add(k)
		}
	}), func(k string) any { return s.Gauges[k] })
	if err != nil {
		return nil, err
	}
	err = putMap("series", keysOf(len(s.Series), func(add func(string)) {
		for k := range s.Series {
			add(k)
		}
	}), func(k string) any { return s.Series[k] })
	if err != nil {
		return nil, err
	}
	b.WriteByte('}')
	return b.Bytes(), nil
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
