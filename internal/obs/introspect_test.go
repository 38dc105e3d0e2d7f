package obs

// Tests for the live-introspection layer: the gauge pending-point flush,
// the Prometheus/OpenMetrics exposition writer and parser, the monitor's
// HTTP front door, the self-profiler, and the per-shard telemetry records.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rpgo/internal/sim"
)

// TestGaugeFinalPointSurvivesSnapshot is the end-of-run truncation
// regression: the run's LAST gauge sample must appear in the snapshot
// series even when the series is long enough to be downsampled (the
// stride-max downsampler would otherwise discard a final value smaller
// than its stride's peak — exactly the shape of a draining queue).
func TestGaugeFinalPointSurvivesSnapshot(t *testing.T) {
	r := NewRegistry(sim.Second)
	g := r.Gauge("queue.depth")
	const n = 1000 // > maxSnapshotSeriesPoints, forces downsampling
	for i := 0; i < n; i++ {
		// Strictly decreasing: every stride's max is its FIRST point, so a
		// max-keeping downsample drops the final sample without the fix.
		g.Set(sim.Time(i)*sim.Time(sim.Second), float64(n-i))
	}
	snap := r.Snapshot()
	pts := snap.Series["queue.depth"]
	if len(pts) == 0 {
		t.Fatal("no series exported")
	}
	if len(pts) > maxSnapshotSeriesPoints {
		t.Fatalf("series has %d points, cap is %d", len(pts), maxSnapshotSeriesPoints)
	}
	last := pts[len(pts)-1]
	if last.T != float64(n-1) || last.V != 1 {
		t.Fatalf("final sample truncated: series ends at t=%g v=%g, want t=%g v=1",
			last.T, last.V, float64(n-1))
	}
}

// TestGaugePendingFlush: a sample that has not yet closed its tick bucket
// must still be visible in Series and Snapshot.
func TestGaugePendingFlush(t *testing.T) {
	r := NewRegistry(10 * sim.Second)
	g := r.Gauge("load")
	g.Set(sim.Time(sim.Second), 1)
	g.Set(sim.Time(5*sim.Second), 2) // same bucket: still pending
	pts := g.Series().Points
	if len(pts) != 1 || pts[0].V != 2 {
		t.Fatalf("pending point not flushed into Series: %+v", pts)
	}
	snap := r.Snapshot()
	sp := snap.Series["load"]
	if len(sp) != 1 || sp[0].V != 2 {
		t.Fatalf("pending point missing from snapshot: %+v", sp)
	}
	// The flush must not commit: a later same-bucket Set still coalesces.
	g.Set(sim.Time(7*sim.Second), 3)
	if pts = g.Series().Points; len(pts) != 1 || pts[0].V != 3 {
		t.Fatalf("Series flush committed the pending point: %+v", pts)
	}
}

// introspectSnapshot builds a snapshot exercising every exposition path:
// plain and shard-prefixed counters, gauges, and a name that needs
// sanitizing.
func introspectSnapshot() *Snapshot {
	s := NewSnapshot()
	s.Put("sim.events", 12345)
	s.Put("shard0.events", 70)
	s.Put("shard1.events", 55)
	s.Put("shard10.barrier_stall_ns", 9e6)
	s.Put("sharded.xmsgs_to.d01", 17)
	s.PutGauge("shard0.occupancy", 0.75, 0.9)
	s.PutGauge("launch.queue_depth", 3, 11)
	return s
}

// TestExpositionDeterministic: two renders of one snapshot are identical
// bytes, families and samples are sorted, and the document ends with EOF.
func TestExpositionDeterministic(t *testing.T) {
	s := introspectSnapshot()
	a := ExpositionString(s)
	b := ExpositionString(s)
	if a != b {
		t.Fatal("exposition is not byte-deterministic")
	}
	if !strings.HasSuffix(a, "# EOF\n") {
		t.Error("exposition missing # EOF trailer")
	}
	// Family names must appear in sorted order.
	var fams []string
	for _, line := range strings.Split(a, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fams = append(fams, strings.Fields(line)[2])
		}
	}
	if len(fams) < 4 {
		t.Fatalf("only %d families rendered:\n%s", len(fams), a)
	}
	for i := 1; i < len(fams); i++ {
		if fams[i] <= fams[i-1] {
			t.Errorf("families out of order: %q after %q", fams[i], fams[i-1])
		}
	}
	// Shard-prefixed keys fold into one family with a shard label.
	for _, want := range []string{
		`rp_shard_events_total{shard="0"} 70`,
		`rp_shard_events_total{shard="1"} 55`,
		`rp_shard_barrier_stall_ns_total{shard="10"} 9e+06`,
		`rp_sim_events_total 12345`,
		`rp_shard_occupancy{shard="0",stat="last"} 0.75`,
	} {
		if !strings.Contains(a, want) {
			t.Errorf("exposition missing %q:\n%s", want, a)
		}
	}
}

// TestExpositionRoundTrip: every sample the writer emits must come back
// through the minimal parser with its name, labels and value intact.
func TestExpositionRoundTrip(t *testing.T) {
	s := introspectSnapshot()
	samples, err := ParseExposition(strings.NewReader(ExpositionString(s)))
	if err != nil {
		t.Fatalf("parse back failed: %v", err)
	}
	got := make(map[string]float64, len(samples))
	for _, smp := range samples {
		got[smp.Key()] = smp.Value
	}
	checks := map[string]float64{
		`rp_sim_events_total`:                         12345,
		`rp_shard_events_total{shard="0"}`:            70,
		`rp_shard_events_total{shard="1"}`:            55,
		`rp_shard_barrier_stall_ns_total{shard="10"}`: 9e6,
		`rp_sharded_xmsgs_to_d01_total`:               17,
		`rp_shard_occupancy{shard="0",stat="last"}`:   0.75,
		`rp_shard_occupancy{shard="0",stat="max"}`:    0.9,
		`rp_launch_queue_depth{stat="max"}`:           11,
	}
	for key, want := range checks {
		v, ok := got[key]
		if !ok {
			t.Errorf("round trip lost %s", key)
			continue
		}
		if v != want {
			t.Errorf("%s = %g, want %g", key, v, want)
		}
	}
}

// TestExpositionLabelEscaping: backslash, quote and newline in label
// values survive a write→parse cycle.
func TestExpositionLabelEscaping(t *testing.T) {
	raw := "a\\b\"c\nd"
	esc := promEscape(raw)
	if strings.ContainsAny(esc, "\n") {
		t.Fatalf("escaped value still contains a newline: %q", esc)
	}
	line := fmt.Sprintf("rp_test{path=\"%s\",shard=\"0\"} 1\n", esc)
	samples, err := ParseExposition(strings.NewReader(line))
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	if len(samples) != 1 {
		t.Fatalf("got %d samples, want 1", len(samples))
	}
	if got := samples[0].Labels["path"]; got != raw {
		t.Errorf("label value round trip: got %q, want %q", got, raw)
	}
	if samples[0].Labels["shard"] != "0" {
		t.Error("second label lost after an escaped value")
	}
}

// TestExpositionParserRejects: malformed lines error with a line number.
func TestExpositionParserRejects(t *testing.T) {
	for _, bad := range []string{
		"rp_x one\n",
		"rp_y{shard=\"0\" 3\n",
		"rp_z{shard=0} 3\n",
		"just_a_name\n",
	} {
		if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("parser accepted %q", strings.TrimSpace(bad))
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("error for %q lacks a line number: %v", strings.TrimSpace(bad), err)
		}
	}
}

// TestSelfProfiler: samples accumulate per phase, concurrently, and merge
// as selfprof.* counters — with silent phases omitted.
func TestSelfProfiler(t *testing.T) {
	p := NewSelfProfiler()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.Observe(sim.PhaseDispatch, int64(i))
			}
			p.Observe(sim.PhaseBarrier, int64(100+w))
		}(w)
	}
	wg.Wait()
	if got := p.Samples(sim.PhaseDispatch); got != 4000 {
		t.Errorf("dispatch samples = %d, want 4000", got)
	}
	if got := p.TotalNs(sim.PhaseDispatch); got != 4*999*1000/2 {
		t.Errorf("dispatch total = %d, want %d", got, 4*999*1000/2)
	}
	if got := p.MaxNs(sim.PhaseBarrier); got != 103 {
		t.Errorf("barrier max = %d, want 103", got)
	}
	snap := NewSnapshot()
	p.Merge(snap)
	if snap.Counters["selfprof.dispatch.samples"] != 4000 {
		t.Errorf("merged dispatch samples = %g", snap.Counters["selfprof.dispatch.samples"])
	}
	if _, ok := snap.Counters["selfprof.sinkfold.samples"]; ok {
		t.Error("silent phase leaked into the snapshot")
	}
	// Nil profiler and out-of-range phases are inert.
	var nilP *SelfProfiler
	nilP.Observe(sim.PhaseDispatch, 1)
	nilP.Merge(snap)
	p.Observe(-1, 5)
	p.Observe(sim.NumPhases, 5)
}

// TestMonitorHTTP: the front door serves /metrics, /healthz and /progress
// from published snapshots only.
func TestMonitorHTTP(t *testing.T) {
	m := NewMonitor(time.Hour) // cadence never fires; we publish explicitly
	m.SetSource(func() *Snapshot {
		s := NewSnapshot()
		s.Put("sim.events", 42)
		s.Put("shard0.events", 21)
		return s
	})
	m.SetProgress(func() (int, int) { return 3, 4 })
	addr, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	get := func(path string) (string, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	// Before any publish: healthy, empty exposition, zero progress.
	body, ct := get("/metrics")
	if !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	if !strings.Contains(body, "# EOF") {
		t.Errorf("pre-publish /metrics is not a valid exposition:\n%s", body)
	}
	if body, _ = get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %q", body)
	}

	m.Publish()
	if m.Publishes() != 1 {
		t.Fatalf("publishes = %d, want 1", m.Publishes())
	}
	body, _ = get("/metrics")
	samples, err := ParseExposition(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	found := map[string]bool{}
	for _, smp := range samples {
		found[smp.Key()] = true
	}
	if !found["rp_sim_events_total"] || !found[`rp_shard_events_total{shard="0"}`] {
		t.Errorf("/metrics missing expected samples:\n%s", body)
	}
	body, ct = get("/progress")
	if !strings.Contains(ct, "application/json") {
		t.Errorf("/progress content type %q", ct)
	}
	if !strings.Contains(body, `"done":3`) || !strings.Contains(body, `"total":4`) || !strings.Contains(body, `"percent":75`) {
		t.Errorf("/progress = %s", body)
	}
}

// TestMonitorCadence: heartbeats publish at most once per cadence; an
// explicit Publish always lands.
func TestMonitorCadence(t *testing.T) {
	m := NewMonitor(time.Hour)
	m.SetSource(func() *Snapshot { return NewSnapshot() })
	for i := 0; i < 100; i++ {
		m.Heartbeat()
	}
	if m.Beats() != 100 {
		t.Errorf("beats = %d, want 100", m.Beats())
	}
	if m.Publishes() != 0 {
		t.Errorf("an hour-cadence monitor published %d times within a test", m.Publishes())
	}
	m.Publish()
	if m.Publishes() != 1 || m.Snapshot() == nil {
		t.Error("explicit Publish did not land")
	}

	fast := NewMonitor(time.Nanosecond)
	fast.SetSource(func() *Snapshot { return NewSnapshot() })
	fast.Heartbeat()
	// The very first beat is inside the first nanosecond-cadence interval
	// only in theory; beat until the clock moves.
	for i := 0; i < 1000 && fast.Publishes() == 0; i++ {
		fast.Heartbeat()
	}
	if fast.Publishes() == 0 {
		t.Error("nanosecond-cadence monitor never published")
	}

	// Nil monitor: every entry point is inert.
	var nilM *Monitor
	nilM.Heartbeat()
	nilM.Publish()
	nilM.SetSource(nil)
	nilM.SetProgress(nil)
	nilM.Attach(nil)
	nilM.AttachSharded(nil)
	if nilM.Snapshot() != nil || nilM.Beats() != 0 {
		t.Error("nil monitor is not inert")
	}
}

// TestShardRecordSpill: shard records round-trip through a JSONL spill and
// render as counter tracks in a valid Perfetto export.
func TestShardRecordSpill(t *testing.T) {
	recs := []ShardRecord{
		{Shard: 0, Events: 100, Busy: 10, Skipped: 2, BusyNs: 5e6, StallNs: 1e6, Sent: 7, Recv: 3, Windows: 12, LookaheadEff: 1.5},
		{Shard: 1, Events: 80, Busy: 9, Skipped: 3, BusyNs: 4e6, StallNs: 2e6, Sent: 3, Recv: 7, Windows: 12, LookaheadEff: 1.5},
	}
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	for _, r := range recs {
		s.WriteShard(r)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var back []ShardRecord
	err := ReadRecords(bytes.NewReader(buf.Bytes()), func(rec *Record) error {
		if rec.Shard != nil {
			back = append(back, *rec.Shard)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, recs) {
		t.Fatalf("shard records drifted through the spill:\n got %+v\nwant %+v", back, recs)
	}

	if occ := recs[0].Occupancy(); occ < 0.83 || occ > 0.84 {
		t.Errorf("occupancy = %g, want ~0.833", occ)
	}
	if (ShardRecord{}).Occupancy() != 0 {
		t.Error("zero record occupancy must be 0")
	}

	table := RenderShardTable(recs)
	for _, want := range []string{"shard", "occ%", "total", "windows=12", "lookahead_efficiency=1.50"} {
		if !strings.Contains(table, want) {
			t.Errorf("shard table missing %q:\n%s", want, table)
		}
	}
	if RenderShardTable(nil) == table {
		t.Error("empty table rendered rows")
	}

	var pbuf bytes.Buffer
	pw := NewPerfettoWriter(&pbuf)
	for i := range recs {
		pw.Record(&Record{Shard: &recs[i]})
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateTraceEvents(bytes.NewReader(pbuf.Bytes()))
	if err != nil {
		t.Fatalf("shard counter export failed validation: %v\n%s", err, pbuf.Bytes())
	}
	if n == 0 {
		t.Fatal("no events exported")
	}
	for _, want := range []string{`"shard0"`, `"shard1"`, `"ph":"C"`, `"shards"`} {
		if !strings.Contains(pbuf.String(), want) {
			t.Errorf("perfetto export missing %s", want)
		}
	}
}
