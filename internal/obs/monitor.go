package obs

// Monitor: the live-introspection front door. A running campaign beats the
// monitor from inside the simulation loop (ShardedEngine.Heartbeat: once
// per window, or every 4,096 events on one partition); the
// monitor rate-limits those beats to a wall-clock cadence, pulls a fresh
// snapshot from its source and publishes it behind an atomic pointer. The
// HTTP side (/metrics in Prometheus text exposition, /healthz, /progress
// with campaign completion) only ever reads published snapshots, so scrapes
// never touch live simulation state.

import (
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"rpgo/internal/sim"
)

// DefaultMonitorCadence is the publish cadence used when none is given.
const DefaultMonitorCadence = time.Second

type monitorHooks struct {
	source   func() *Snapshot
	progress func() (done, total int)
}

// Monitor publishes metrics snapshots at a wall-clock cadence and serves
// them over HTTP. All methods are safe for concurrent use; a nil *Monitor
// is inert.
type Monitor struct {
	cadence time.Duration
	start   time.Time
	hooks   atomic.Pointer[monitorHooks]
	cur     atomic.Pointer[Snapshot]
	lastNs  atomic.Int64
	beats   atomic.Uint64
	pubs    atomic.Uint64
	done    atomic.Int64
	total   atomic.Int64
}

// NewMonitor returns a monitor that republishes at most every cadence
// (<=0 uses DefaultMonitorCadence).
func NewMonitor(cadence time.Duration) *Monitor {
	if cadence <= 0 {
		cadence = DefaultMonitorCadence
	}
	return &Monitor{cadence: cadence, start: time.Now()}
}

// SetSource installs the snapshot source the monitor publishes from. The
// source runs on whichever thread beats the monitor (the coordinator, or
// the simulation thread of a one-partition engine), so sources must be
// safe to call from there — sessions hand in LiveSnapshot, which skips
// trace-dependent analyses that need a finished run.
func (m *Monitor) SetSource(src func() *Snapshot) {
	if m == nil {
		return
	}
	for {
		old := m.hooks.Load()
		nh := &monitorHooks{source: src}
		if old != nil {
			nh.progress = old.progress
		}
		if m.hooks.CompareAndSwap(old, nh) {
			return
		}
	}
}

// SetProgress installs the campaign completion hook behind /progress. The
// hook runs only at publish time — on the beating thread, never from HTTP
// handlers — so it may read live task-manager counters without locks; the
// HTTP side only sees the cached counts from the last publish.
func (m *Monitor) SetProgress(fn func() (done, total int)) {
	if m == nil {
		return
	}
	for {
		old := m.hooks.Load()
		nh := &monitorHooks{progress: fn}
		if old != nil {
			nh.source = old.source
		}
		if m.hooks.CompareAndSwap(old, nh) {
			return
		}
	}
}

// Attach hooks the monitor into a sharded engine's heartbeat: the end of
// each window, where every domain is between events, or the event loop of
// a one-partition engine.
func (m *Monitor) Attach(se *sim.ShardedEngine) {
	if m == nil || se == nil {
		return
	}
	se.Heartbeat = m.Heartbeat
}

// Heartbeat is the beat the simulation loop fires. It publishes a fresh
// snapshot when at least one cadence has elapsed since the last publish;
// otherwise it costs two atomic loads.
func (m *Monitor) Heartbeat() {
	if m == nil {
		return
	}
	m.beats.Add(1)
	now := time.Since(m.start).Nanoseconds()
	last := m.lastNs.Load()
	if now-last < m.cadence.Nanoseconds() {
		return
	}
	if !m.lastNs.CompareAndSwap(last, now) {
		return // a concurrent beat won the publish
	}
	m.Publish()
}

// Publish pulls one snapshot from the source and makes it the scrape view,
// regardless of cadence. Campaign runners call it once after the run so the
// final state (100% progress, end-of-run gauges) is always visible.
func (m *Monitor) Publish() {
	if m == nil {
		return
	}
	h := m.hooks.Load()
	if h == nil {
		return
	}
	if h.progress != nil {
		d, t := h.progress()
		m.done.Store(int64(d))
		m.total.Store(int64(t))
	}
	if h.source == nil {
		return
	}
	if snap := h.source(); snap != nil {
		m.cur.Store(snap)
		m.pubs.Add(1)
	}
}

// Snapshot returns the most recently published snapshot (nil before the
// first publish). Published snapshots are never mutated.
func (m *Monitor) Snapshot() *Snapshot {
	if m == nil {
		return nil
	}
	return m.cur.Load()
}

// Beats returns how many heartbeats arrived; Publishes how many snapshots
// were published.
func (m *Monitor) Beats() uint64 {
	if m == nil {
		return 0
	}
	return m.beats.Load()
}

// Publishes returns the number of published snapshots.
func (m *Monitor) Publishes() uint64 {
	if m == nil {
		return 0
	}
	return m.pubs.Load()
}

// Progress returns the completion counts cached at the last publish
// (0, 0 before the first publish or when no hook is set).
func (m *Monitor) Progress() (done, total int) {
	if m == nil {
		return 0, 0
	}
	return int(m.done.Load()), int(m.total.Load())
}

// Handler returns the monitoring mux: /metrics (Prometheus text
// exposition of the latest published snapshot), /healthz, and /progress
// (campaign completion as JSON).
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		snap := m.Snapshot()
		if snap == nil {
			snap = NewSnapshot()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteOpenMetrics(w, snap)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		done, total := m.Progress()
		pct := 0
		if total > 0 {
			pct = 100 * done / total
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"done\":%d,\"total\":%d,\"percent\":%d,\"uptime_s\":%.1f,\"published\":%d}\n",
			done, total, pct, time.Since(m.start).Seconds(), m.Publishes())
	})
	return mux
}

// Serve starts the monitoring HTTP server on addr (":0" picks a free port)
// and returns the bound address. The server runs on a background goroutine
// for the life of the process.
func (m *Monitor) Serve(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: m.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), nil
}
