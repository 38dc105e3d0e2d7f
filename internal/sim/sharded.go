// Sharded engine: conservative-lookahead windows over partition engines.
//
// A ShardedEngine runs P partition-local event Engines dealt over S shard
// engines. Partitions are the model's natural boundaries (the client, each
// pilot, a storage domain); every cross-partition interaction is declared
// as a timestamped message with a minimum delay, and the smallest declared
// delay is the lookahead L. Synchronization is conservative and
// window-based:
//
//	T     = min over shards of the earliest pending event
//	limit = T + L
//
// Every shard may process its events in [T, limit) without hearing from
// the others, because any message generated inside the window is stamped
// at sender-now + delay ≥ T + L = limit — it cannot affect the window. Run
// runs each busy shard's share of the window in turn, on the calling
// goroutine. At the window's end the staged messages are exchanged and
// scheduled into their destination engines, and the next window begins.
// Shards with no events in a window are skipped, so quiescent partitions
// fast-forward to the next window in O(1).
//
// Determinism is by construction:
//
//   - Within a shard, the Engine's (time, sequence) order is already exact.
//   - At a window's end, destinations drain sources in partition-index
//     order and each source's messages in send order. The sequence numbers
//     assigned to injected events therefore depend only on (window, source
//     partition, send order) — quantities the partition→shard mapping
//     cannot change.
//   - Window boundaries derive from the global minimum next-event time,
//     which is also mapping-independent.
//
// Consequently a fixed seed and fixed partition layout produce byte-
// identical merged traces for ANY shard count, including shards=1 — the
// equivalence the golden-fingerprint tests pin.
//
// A one-partition engine has no boundary for a message to cross, so window
// limits would order nothing. Run drains it as one window, with the plain
// engine's event loop and none of the per-window clock reads.
package sim

import (
	"fmt"
	"time"
)

// xmsg is one staged cross-partition message.
type xmsg struct {
	at  Time
	dst int32
	fn  func(any)
	arg any
}

// ShardedConfig sizes a sharded engine.
type ShardedConfig struct {
	// Partitions is the number of partition-local engines P (≥1).
	Partitions int
	// Shards is the engine count S the partitions are dealt over; clamped
	// to [1, Partitions]. The count never changes the simulated result.
	Shards int
	// Lookahead is the minimum declared delay of every cross-partition
	// channel; Send panics on a smaller delay. Must be positive.
	Lookahead Duration
}

// ShardStat is per-shard window telemetry, maintained by Run. All fields
// are cumulative over the engine's lifetime.
type ShardStat struct {
	Events  uint64 // events dispatched by this shard's engine
	Busy    uint64 // windows in which the shard had work and was dispatched
	Skipped uint64 // windows skipped because the shard was quiescent
	BusyNs  int64  // wall-clock nanoseconds spent running windows
	Sent    uint64 // cross-partition messages sent from this shard
	Recv    uint64 // cross-partition messages received by this shard
}

// ShardedEngine coordinates P partition engines under conservative
// time-window synchronization on S shard engines.
type ShardedEngine struct {
	engines   []*Engine // one per shard
	partShard []int32   // partition → shard
	outbox    [][]xmsg  // per source partition, staged this window
	lookahead Duration
	running   bool

	windows uint64
	crossed uint64

	// Window telemetry.
	stats    []ShardStat
	xByDst   []uint64 // cross messages per destination partition
	advanced Duration // total sim time the window start advanced across barriers
	prevT    Time
	exchNs   int64

	// Phase, when set, receives wall-clock samples: one PhaseExchange per
	// window end and one PhaseDispatch per window (the busy shards' summed
	// run time).
	Phase PhaseFunc
	// Heartbeat, when set, fires once per window, after every busy shard
	// ran its share, so a monitor may read per-domain registries from
	// inside the callback. A one-partition run is a single window, so there
	// it fires from the event loop instead: on the first event and every
	// 4,096 events after.
	Heartbeat func()
}

// NewShardedEngine builds the engine set and the partition→shard map
// (round-robin; the mapping is behavior-invariant, see package comment).
func NewShardedEngine(cfg ShardedConfig) *ShardedEngine {
	if cfg.Partitions < 1 {
		panic("sim: sharded engine needs at least one partition")
	}
	if cfg.Lookahead <= 0 {
		panic("sim: sharded engine needs a positive lookahead")
	}
	s := cfg.Shards
	if s < 1 {
		s = 1
	}
	if s > cfg.Partitions {
		s = cfg.Partitions
	}
	se := &ShardedEngine{lookahead: cfg.Lookahead}
	se.engines = make([]*Engine, s)
	for i := range se.engines {
		se.engines[i] = NewEngine()
	}
	se.partShard = make([]int32, cfg.Partitions)
	se.outbox = make([][]xmsg, cfg.Partitions)
	for p := range se.partShard {
		se.partShard[p] = int32(p % s)
	}
	se.stats = make([]ShardStat, s)
	se.xByDst = make([]uint64, cfg.Partitions)
	se.prevT = -1
	return se
}

// Partitions returns the partition count P.
func (se *ShardedEngine) Partitions() int { return len(se.partShard) }

// Shards returns the shard engine count S.
func (se *ShardedEngine) Shards() int { return len(se.engines) }

// Lookahead returns the conservative synchronization window width.
func (se *ShardedEngine) Lookahead() Duration { return se.lookahead }

// Windows returns how many synchronization windows Run executed.
func (se *ShardedEngine) Windows() uint64 { return se.windows }

// CrossEvents returns how many cross-partition messages were exchanged.
func (se *ShardedEngine) CrossEvents() uint64 { return se.crossed }

// ShardStats returns a copy of the per-shard window telemetry, with Events
// filled in from each shard engine's step counter.
func (se *ShardedEngine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(se.stats))
	copy(out, se.stats)
	for i, e := range se.engines {
		out[i].Events = e.Steps()
	}
	return out
}

// CrossByDst returns a copy of the cross-partition message counts keyed by
// destination partition.
func (se *ShardedEngine) CrossByDst() []uint64 {
	out := make([]uint64, len(se.xByDst))
	copy(out, se.xByDst)
	return out
}

// SimAdvanced returns the total virtual time the window start moved forward
// across barriers (the sum of T_k − T_{k−1}).
func (se *ShardedEngine) SimAdvanced() Duration { return se.advanced }

// ExchangeNs returns the cumulative wall-clock time spent exchanging
// outboxes at barriers.
func (se *ShardedEngine) ExchangeNs() int64 { return se.exchNs }

// LookaheadEfficiency reports the measured sim-time advanced per barrier in
// units of the lookahead. By construction each barrier advances the window
// start by at least one lookahead, so the value is ≥1; higher means fewer
// barriers per unit of simulated time (events cluster, quiescent gaps are
// skipped in one hop). Runs with at most one window report 1.
func (se *ShardedEngine) LookaheadEfficiency() float64 {
	if se.windows <= 1 || se.lookahead <= 0 {
		return 1
	}
	return float64(se.advanced) / (float64(se.windows-1) * float64(se.lookahead))
}

// Engine returns the event engine hosting the given partition. Partitions
// mapped to the same shard share one engine; all scheduling for a
// partition's components goes through it.
func (se *ShardedEngine) Engine(part int) *Engine {
	return se.engines[se.partShard[part]]
}

// Steps returns the total event count across all shards.
func (se *ShardedEngine) Steps() uint64 {
	var n uint64
	for _, e := range se.engines {
		n += e.Steps()
	}
	return n
}

// HeapPushes returns the total heap pushes across all shards.
func (se *ShardedEngine) HeapPushes() uint64 {
	var n uint64
	for _, e := range se.engines {
		n += e.HeapPushes()
	}
	return n
}

// PoolSlots returns the summed slot-arena size across all shards.
func (se *ShardedEngine) PoolSlots() int {
	n := 0
	for _, e := range se.engines {
		n += e.PoolSlots()
	}
	return n
}

// PoolFree returns the summed free-list length across all shards.
func (se *ShardedEngine) PoolFree() int {
	n := 0
	for _, e := range se.engines {
		n += e.PoolFree()
	}
	return n
}

// Cancellations returns the total timer cancellations across all shards.
func (se *ShardedEngine) Cancellations() uint64 {
	var n uint64
	for _, e := range se.engines {
		n += e.Cancellations()
	}
	return n
}

// HeapHighWater returns the deepest any shard's event heap ever got.
func (se *ShardedEngine) HeapHighWater() int {
	m := 0
	for _, e := range se.engines {
		if h := e.HeapHighWater(); h > m {
			m = h
		}
	}
	return m
}

// Send stages fn(arg) to run in partition dst at src-now + delay. It must
// be called from partition src — either inside one of its events or before
// Run starts — and the delay must be at least the declared lookahead: the
// window protocol is only safe because no message can land inside the
// window it was sent from. Same-partition sends schedule directly.
func (se *ShardedEngine) Send(src, dst int, delay Duration, fn func(any), arg any) {
	if fn == nil {
		panic("sim: Send with nil callback")
	}
	if delay < se.lookahead {
		panic(fmt.Sprintf("sim: cross-partition delay %v below declared lookahead %v", delay, se.lookahead))
	}
	eng := se.engines[se.partShard[src]]
	if src == dst {
		eng.AfterCall(delay, fn, arg)
		return
	}
	se.outbox[src] = append(se.outbox[src], xmsg{at: eng.Now().Add(delay), dst: int32(dst), fn: fn, arg: arg})
}

// exchange injects every staged message into its destination engine, in
// (destination, source partition, send order) — the mapping-invariant
// order the package comment relies on.
func (se *ShardedEngine) exchange() {
	for dst := 0; dst < len(se.partShard); dst++ {
		var dstEng *Engine
		for src := range se.outbox {
			for i := range se.outbox[src] {
				m := &se.outbox[src][i]
				if int(m.dst) != dst {
					continue
				}
				if dstEng == nil {
					dstEng = se.engines[se.partShard[dst]]
				}
				if m.at < dstEng.Now() {
					panic(fmt.Sprintf("sim: cross-partition message at %v behind destination clock %v (lookahead violated)", m.at, dstEng.Now()))
				}
				// A message sent in a window is stamped at least one
				// lookahead past the window's start, so m.at ≥ limit, and
				// the destination ran only events below limit: it goes to
				// the heap, never to the immediate lane. (One sent before
				// Run at the destination's own instant would take the
				// lane, which is its place in heap order too.)
				dstEng.AtCall(m.at, m.fn, m.arg)
				se.crossed++
				se.stats[se.partShard[src]].Sent++
				se.stats[se.partShard[dst]].Recv++
				se.xByDst[dst]++
			}
		}
	}
	for src := range se.outbox {
		for i := range se.outbox[src] {
			se.outbox[src][i].arg = nil // drop references; slice is reused
			se.outbox[src][i].fn = nil
		}
		se.outbox[src] = se.outbox[src][:0]
	}
}

// Run drives every partition to global quiescence: exchange staged
// messages, compute the next conservative window, run each busy shard's
// share of it in shard order, repeat until no events remain anywhere. With
// one partition there is no loop: see runOne. The loop has no yield of its
// own; the shard engines' step yields every 4,096 events, inside windows
// and across them alike.
func (se *ShardedEngine) Run() {
	if se.running {
		panic("sim: ShardedEngine.Run called reentrantly")
	}
	se.running = true
	defer func() { se.running = false }()
	if len(se.partShard) == 1 {
		se.runOne()
		return
	}
	for {
		ex0 := time.Now()
		se.exchange()
		exd := time.Since(ex0).Nanoseconds()
		se.exchNs += exd
		if se.Phase != nil {
			se.Phase(PhaseExchange, exd)
		}
		T := Time(-1)
		for _, e := range se.engines {
			if nt, ok := e.peekTime(); ok && (T < 0 || nt < T) {
				T = nt
			}
		}
		if T < 0 {
			break
		}
		if se.prevT >= 0 {
			se.advanced += T.Sub(se.prevT)
		}
		se.prevT = T
		limit := T.Add(se.lookahead)
		se.windows++
		var dispatch int64
		for i, e := range se.engines {
			// A shard runs only its own events inside a window (its sends
			// to other partitions wait in the outbox), so its next event
			// time is still the one the window start was taken from. A
			// shard with nothing below the limit costs one comparison.
			if nt, ok := e.peekTime(); !ok || nt >= limit {
				se.stats[i].Skipped++
				continue
			}
			t0 := time.Now()
			e.runBefore(limit)
			d := time.Since(t0).Nanoseconds()
			se.stats[i].Busy++
			se.stats[i].BusyNs += d
			dispatch += d
		}
		if se.Phase != nil {
			se.Phase(PhaseDispatch, dispatch)
		}
		if se.Heartbeat != nil {
			se.Heartbeat()
		}
	}
}

// runOne drains a one-partition engine as a single busy window: one
// dispatch sample through Phase, and Heartbeat moved onto the engine's
// per-event beat for the length of the run. A run with no events counts
// no window, as in the loop.
func (se *ShardedEngine) runOne() {
	e := se.engines[0]
	T, ok := e.peekTime()
	if !ok {
		return
	}
	if se.prevT >= 0 {
		se.advanced += T.Sub(se.prevT)
	}
	se.prevT = T
	se.windows++
	se.stats[0].Busy++
	e.heartbeat = se.Heartbeat
	t0 := time.Now()
	for e.step() {
	}
	d := time.Since(t0).Nanoseconds()
	e.heartbeat = nil
	se.stats[0].BusyNs += d
	if se.Phase != nil {
		se.Phase(PhaseDispatch, d)
	}
}
