package main

import (
	"slices"
	"time"
)

// highWaters are snapshot counters that are maxima, not sums.
var highWaters = []string{"sim.heap_highwater", "launch.queue_highwater", "slurm.srun_highwater", "sharded.shards"}

// layers sums the traced reps. Span durations add up by name — a layer the
// benchmark calls both before sim.wait and from completion callbacks has a
// span in each place — and snapshot counters add up over reps, so every
// per-task figure is a ratio of totals.
type layers struct {
	reps, tasks, submitted int
	dur, self              map[string]int64
	bytes, allocs          map[string]uint64
	ctr, high              map[string]float64
	lookahead              float64
	repNs, topNs           int64
	overheadPct            []float64
}

// add takes one traced rep; slowdown is its ns/task over the untraced
// rep's of the same seed.
func (l *layers) add(c *clock, tasks int, slowdown float64) {
	if l.dur == nil {
		l.dur, l.self = map[string]int64{}, map[string]int64{}
		l.bytes, l.allocs = map[string]uint64{}, map[string]uint64{}
		l.ctr, l.high = map[string]float64{}, map[string]float64{}
	}
	l.reps++
	l.tasks += tasks
	l.submitted += c.submitted
	l.repNs += c.spans[0].dur
	for i, s := range c.spans[1:] {
		self := s.dur
		for _, ch := range c.spans {
			if ch.parent == i+1 {
				self -= ch.dur
			}
		}
		l.dur[s.name] += s.dur
		l.self[s.name] += self
		l.bytes[s.name] += s.bytes
		l.allocs[s.name] += s.allocs
		if s.parent == 0 {
			l.topNs += s.dur
		}
	}
	for k, v := range c.snap.Counters {
		if slices.Contains(highWaters, k) {
			l.high[k] = max(l.high[k], v)
		} else {
			l.ctr[k] += v
		}
	}
	l.lookahead += c.snap.Gauges["sharded.lookahead_efficiency"].Last
	l.overheadPct = append(l.overheadPct, (slowdown-1)*100)
}

// metrics derives the per-layer metrics. A layer a workload bypasses
// reports zero.
func (l *layers) metrics() []metric {
	tasks, reps := float64(l.tasks), float64(l.reps)
	dur := func(name string) float64 { return float64(l.dur[name]) }
	perTask := func(v float64) float64 { return ratio(v, tasks) }
	ctr := func(k string) float64 { return l.ctr[k] }
	hits := ctr("data.locality_hits")
	slices.Sort(l.overheadPct)
	overhead, _ := quantile(l.overheadPct, 0.5)
	m := func(name string, v float64, unit string) metric { return metric{Name: name, Value: v, Unit: unit} }
	return []metric{
		m("core.session_ms", ratio(dur("core.session"), reps)/1e6, "ms"),
		m("workload.gen_ns_per_task", perTask(dur("workload.gen")), "ns/task"),
		m("campaign.start_ms", ratio(dur("campaign.start"), reps)/1e6, "ms"),
		m("core.submit_ns_per_task", perTask(dur("core.submit")), "ns/task"),
		m("core.submit_bytes_per_task", ratio(float64(l.bytes["core.submit"]), float64(l.submitted)), "B/task"),
		m("sim.wait_ns_per_task", perTask(dur("sim.wait")), "ns/task"),
		m("sim.wait_bytes_per_task", perTask(float64(l.bytes["sim.wait"])), "B/task"),
		m("sim.wait_allocs_per_task", perTask(float64(l.allocs["sim.wait"])), "allocs/task"),
		m("sim.events_per_task", perTask(ctr("sim.events")), "events/task"),
		m("sim.ns_per_event", ratio(dur("sim.wait"), ctr("sim.events")), "ns/event"),
		m("sim.dispatch_self_ns_per_task", perTask(float64(l.self["sim.dispatch"])), "ns/task"),
		m("sim.heap_highwater", l.high["sim.heap_highwater"], "events"),
		m("sim.timer_cancellations_per_task", perTask(ctr("sim.timer_cancellations")), "cancels/task"),
		m("launch.placement_ns_per_task", perTask(dur("launch.placement")), "ns/task"),
		m("launch.placement_calls_per_task", perTask(ctr("selfprof.placement.samples")), "calls/task"),
		m("launch.attempts_per_placed", ratio(ctr("launch.attempts"), ctr("launch.placed")), "attempts/placed"),
		m("launch.scan_failures_per_task", perTask(ctr("launch.scan_failures")), "failures/task"),
		m("launch.watermark_skips_per_task", perTask(ctr("launch.watermark_skips")), "skips/task"),
		m("launch.backfill_hits_per_task", perTask(ctr("launch.backfill_hits")), "hits/task"),
		m("launch.affinity_hits_per_task", perTask(ctr("launch.affinity_hits")), "hits/task"),
		m("launch.queue_highwater", l.high["launch.queue_highwater"], "requests"),
		m("agent.dispatches_per_task", perTask(ctr("agent.dispatches")), "dispatches/task"),
		m("agent.retries_per_task", perTask(ctr("agent.retries")), "retries/task"),
		m("slurm.srun_highwater", l.high["slurm.srun_highwater"], "sruns"),
		m("data.transfers_per_task", perTask(ctr("data.transfers")), "transfers/task"),
		m("data.contention_stalls_per_task", perTask(ctr("data.contention_stalls")), "stalls/task"),
		m("data.coalesced_joins_per_task", perTask(ctr("data.coalesced_joins")), "joins/task"),
		m("data.locality_hit_rate", ratio(hits, hits+ctr("data.locality_misses")), "ratio"),
		m("obs.sinkfold_ns_per_task", perTask(dur("obs.sinkfold")), "ns/task"),
		m("sharded.windows_per_ktask", perTask(ctr("sharded.windows"))*1000, "windows/ktask"),
		m("sharded.cross_events_per_task", perTask(ctr("sharded.cross_events")), "events/task"),
		m("sharded.barrier_stall_frac", ratio(ctr("sharded.barrier_stall_ns"), l.high["sharded.shards"]*dur("sim.wait")), "ratio"),
		m("sharded.exchange_ns_per_window", ratio(ctr("sharded.exchange_ns"), ctr("sharded.windows")), "ns/window"),
		m("sharded.lookahead_eff", ratio(l.lookahead, reps), "ratio"),
		m("metrics.analyze_ns_per_task", perTask(dur("metrics.analyze")), "ns/task"),
		m("metrics.analyze_bytes_per_task", perTask(float64(l.bytes["metrics.analyze"])), "B/task"),
		m("analytics.blame_ns_per_task", perTask(dur("analytics.blame")), "ns/task"),
		m("trace.overhead_pct", overhead, "%"),
		m("trace.unattributed_pct", ratio(float64(l.repNs-l.topNs), float64(l.repNs))*100, "%"),
	}
}

// epoch anchors trace-event timestamps.
var epoch = time.Now()

// traceEvent is one span as a Chrome trace-event "complete" event, which
// Perfetto and chrome://tracing load directly. Each workload is one thread;
// the spans of a rep share args.rep.
type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args eventArgs `json:"args"`
}

type eventArgs struct {
	Rep    int    `json:"rep"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Bytes  uint64 `json:"bytes,omitempty"`
	Allocs uint64 `json:"allocs,omitempty"`
}

func appendEvents(evs []traceEvent, c *clock, workload string, tid, rep int) []traceEvent {
	base := float64(c.wall.Sub(epoch).Nanoseconds())
	for i, s := range c.spans {
		evs = append(evs, traceEvent{
			Name: s.name, Cat: workload, Ph: "X",
			Ts: (base + float64(s.start)) / 1e3, Dur: float64(s.dur) / 1e3,
			Pid: 1, Tid: tid,
			Args: eventArgs{Rep: rep, ID: i, Parent: s.parent, Bytes: s.bytes, Allocs: s.allocs},
		})
	}
	return evs
}
