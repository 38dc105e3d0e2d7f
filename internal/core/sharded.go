// Sharded sessions: one client domain plus per-pilot domains, each a fully
// self-contained Session (engine, Slurm controller, profiler, RNG source)
// bound to a shard of a sim.ShardedEngine.
//
// Partitioning follows the model's natural boundaries: domain 0 hosts the
// client side (task managers, campaign drivers), and each pilot lives in
// its own domain with everything it touches — agent, launcher, scheduler,
// data system, services. The only cross-domain interactions are the
// client↔agent control-plane hops (submit batches down, completion notices
// back), which travel as timestamped messages with the declared
// CrossPartitionLatency; that latency is the sharded engine's conservative
// lookahead. Shared-FS capacity is statically partitioned over the pilot
// domains (each domain's SharedFSBase is divided by the pilot count), so
// the facility-wide PFS model needs no cross-domain arbitration.
//
// Determinism: domain layout, per-domain seeds, and message injection order
// are all independent of the partition→shard mapping, so a fixed seed and
// fixed domain count produce identical traces for every shard count. A
// Domains=1 session replays a plain Session event for event: the Fig 8
// golden tests run on one and check the plain session's fingerprints.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"rpgo/internal/agent"
	"rpgo/internal/model"
	"rpgo/internal/obs"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// domainSeedStride separates per-domain RNG seeds (golden-ratio stride, the
// same constant splitmix64 uses, so nearby domain indices decorrelate).
const domainSeedStride = 0x9E3779B97F4A7C15

// xdTransport carries a TaskManager's traffic across the partition
// boundary between the client domain and the pilot's domain.
type xdTransport struct {
	se      *sim.ShardedEngine
	client  int
	pilot   int
	latency sim.Duration
}

// ShardedConfig configures a sharded session.
type ShardedConfig struct {
	// Seed drives domain 0 exactly like Config.Seed drives a plain
	// session; pilot domains derive decorrelated seeds from it.
	Seed uint64
	// Params overrides the calibrated model constants; nil uses
	// model.Default(). Each domain receives its own copy.
	Params *model.Params
	// Domains is the partition count: 1 client domain + (Domains-1) pilot
	// domains. Domains=1 colocates everything — equivalent to a plain
	// Session. Values <1 are treated as 1.
	Domains int
	// Shards is the engine count the sharded engine deals the domains
	// over (clamped to [1, Domains]); it never changes the traces.
	Shards int
	// Sink, when set, builds the trace sink for each domain (it may
	// return nil for domains that need none). Task finals fire on the
	// OWNING PILOT's domain sink; the client domain sink only sees tasks
	// of colocated pilots.
	Sink func(domain int) profiler.TraceSink
	// Profile, when set, is the wall-clock self-profiler shared by every
	// domain and the sharded engine's window loop (window dispatch and
	// exchange samples).
	Profile *obs.SelfProfiler
}

// ShardedSession is a multi-domain session on a sharded engine.
type ShardedSession struct {
	// Eng is the conservative-lookahead engine coordinating the domains.
	Eng *sim.ShardedEngine

	domains []*Session
}

// NewShardedSession builds the domain set. Domain 0 uses cfg.Seed verbatim
// so a Domains=1 sharded session replays a plain NewSession(cfg) run
// event-for-event.
func NewShardedSession(cfg ShardedConfig) *ShardedSession {
	if cfg.Domains < 1 {
		cfg.Domains = 1
	}
	params := model.Default()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	se := sim.NewShardedEngine(sim.ShardedConfig{
		Partitions: cfg.Domains,
		Shards:     cfg.Shards,
		Lookahead:  sim.Seconds(params.RP.CrossPartitionLatency),
	})
	ss := &ShardedSession{Eng: se}
	if cfg.Profile != nil {
		se.Phase = cfg.Profile.Observe
	}
	for d := 0; d < cfg.Domains; d++ {
		p := params
		if d > 0 {
			// Static fair split of the facility-wide PFS base stripe over
			// the pilot domains; the per-node term already scales with each
			// domain's own allocation and node-local tiers are untouched.
			p.Data.SharedFSBase /= float64(cfg.Domains - 1)
		}
		seed := cfg.Seed
		if d > 0 {
			seed = cfg.Seed + uint64(d)*domainSeedStride
		}
		var sink profiler.TraceSink
		if cfg.Sink != nil {
			sink = cfg.Sink(d)
		}
		ss.domains = append(ss.domains, newSessionOn(se.Engine(d), Config{
			Seed:    seed,
			Params:  &p,
			Sink:    sink,
			Profile: cfg.Profile,
		}))
	}
	return ss
}

// Client returns the client domain (domain 0) — the session that owns task
// UIDs, the merged trace order, and any colocated pilots.
func (ss *ShardedSession) Client() *Session { return ss.domains[0] }

// SubmitPilot bootstraps a pilot inside the given domain. Domain 0 keeps
// the pilot colocated with the client (the classic fast path — use it with
// Domains=1 for exact plain-session equivalence).
func (ss *ShardedSession) SubmitPilot(domain int, pd spec.PilotDescription) (*Pilot, error) {
	p, err := ss.domains[domain].SubmitPilot(pd)
	if err != nil {
		return nil, err
	}
	p.domain = domain
	return p, nil
}

// TaskManager builds a task manager for the pilot. Its client-side state
// (UID allocation, trace registration, completion accounting, campaign
// hooks) always lives in domain 0; when the pilot is in another domain the
// manager's submit batches and completion notices cross the partition
// boundary with CrossPartitionLatency. Wait drives the whole sharded
// engine.
func (ss *ShardedSession) TaskManager(p *Pilot) *TaskManager {
	tm := ss.domains[0].TaskManager(p)
	tm.drive = ss.Eng.Run
	if p.domain != 0 {
		xd := &xdTransport{se: ss.Eng, client: 0, pilot: p.domain, latency: ss.Eng.Lookahead()}
		tm.xd = xd
		tm.doneRecvFn = func(arg any) { tm.taskDone(arg.(*agent.Task)) }
		tm.doneSendFn = func(t *agent.Task) {
			xd.se.Send(xd.pilot, xd.client, xd.latency, tm.doneRecvFn, t)
		}
	}
	return tm
}

// Tasks returns the merged task traces in submission order. Traces are
// registered in the client profiler at Submit, so the client's retained
// order IS the merged order (empty in streaming mode, as in plain
// sessions).
func (ss *ShardedSession) Tasks() []*profiler.TaskTrace {
	return ss.domains[0].Profiler.Tasks()
}

// MetricsSnapshot merges the per-domain snapshots: counters are summed
// across domains, except *_highwater keys, which take the largest domain's
// value. Then the engine-level counters are replaced with the sharded
// engine's totals and the sharded.* and per-shard shardN.* groups are
// added. Gauges are taken from the client domain only (each domain's own
// gauges stay available through Domain(d).MetricsSnapshot()).
func (ss *ShardedSession) MetricsSnapshot() *obs.Snapshot { return ss.snapshot(true) }

// LiveSnapshot is the mid-run variant behind the monitor: the same merged
// export minus the per-domain blame decompositions (see Session.
// LiveSnapshot).
func (ss *ShardedSession) LiveSnapshot() *obs.Snapshot { return ss.snapshot(false) }

func (ss *ShardedSession) snapshot(includeBlame bool) *obs.Snapshot {
	snap := ss.domains[0].snapshot(includeBlame)
	for _, s := range ss.domains[1:] {
		for k, v := range s.snapshot(includeBlame).Counters {
			switch {
			case strings.HasPrefix(k, "selfprof."):
				// Every domain shares one self-profiler, and domain 0's
				// snapshot already merged it; summing the identical totals
				// again would multiply them by the domain count.
			case strings.HasSuffix(k, "_highwater"):
				// A sum of per-domain maxima is no domain's high-water mark.
				snap.Put(k, max(snap.Counters[k], v))
			default:
				snap.Put(k, snap.Counters[k]+v)
			}
		}
	}
	snap.Put("sim.events", float64(ss.Eng.Steps()))
	snap.Put("sim.heap_pushes", float64(ss.Eng.HeapPushes()))
	snap.Put("sim.heap_highwater", float64(ss.Eng.HeapHighWater()))
	snap.Put("sim.timer_cancellations", float64(ss.Eng.Cancellations()))
	snap.Put("sim.pool_slots", float64(ss.Eng.PoolSlots()))
	snap.Put("sim.pool_free", float64(ss.Eng.PoolFree()))
	snap.Put("sharded.windows", float64(ss.Eng.Windows()))
	snap.Put("sharded.cross_events", float64(ss.Eng.CrossEvents()))
	snap.Put("sharded.shards", float64(ss.Eng.Shards()))
	snap.Put("sharded.partitions", float64(ss.Eng.Partitions()))
	snap.Put("sharded.sim_advanced_us", float64(ss.Eng.SimAdvanced()))
	snap.Put("sharded.lookahead_us", float64(ss.Eng.Lookahead()))
	snap.Put("sharded.exchange_ns", float64(ss.Eng.ExchangeNs()))
	eff := ss.Eng.LookaheadEfficiency()
	snap.PutGauge("sharded.lookahead_efficiency", eff, eff)
	for i, st := range ss.Eng.ShardStats() {
		p := "shard" + strconv.Itoa(i) + "."
		snap.Put(p+"events", float64(st.Events))
		snap.Put(p+"windows_busy", float64(st.Busy))
		snap.Put(p+"windows_skipped", float64(st.Skipped))
		snap.Put(p+"busy_ns", float64(st.BusyNs))
		snap.Put(p+"xmsgs_sent", float64(st.Sent))
		snap.Put(p+"xmsgs_recv", float64(st.Recv))
	}
	for d, n := range ss.Eng.CrossByDst() {
		if n > 0 {
			snap.Put(fmt.Sprintf("sharded.xmsgs_to.d%02d", d), float64(n))
		}
	}
	return snap
}
