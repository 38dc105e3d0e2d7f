package obs

// Per-shard window telemetry records: the spill-side view of
// sim.ShardedEngine's ShardStats, written into JSONL trace spills by
// campaign runners so rptrace can render the per-shard table offline.

import (
	"fmt"
	"strings"

	"rpgo/internal/sim"
)

// ShardRecord is one shard's cumulative window telemetry. Windows and
// LookaheadEff describe the whole run and repeat on every record so a
// spill stays self-describing record by record.
type ShardRecord struct {
	Shard        int     `json:"shard"`
	Events       uint64  `json:"events"`
	Busy         uint64  `json:"busy"`
	Skipped      uint64  `json:"skipped"`
	BusyNs       int64   `json:"busy_ns"`
	Sent         uint64  `json:"sent"`
	Recv         uint64  `json:"recv"`
	Windows      uint64  `json:"windows"`
	LookaheadEff float64 `json:"lookahead_eff,omitempty"`
}

// ShardRecords folds a sharded engine's telemetry into one record per
// shard. Call it after Run returns.
func ShardRecords(se *sim.ShardedEngine) []ShardRecord {
	stats := se.ShardStats()
	recs := make([]ShardRecord, len(stats))
	for i, st := range stats {
		recs[i] = ShardRecord{
			Shard:        i,
			Events:       st.Events,
			Busy:         st.Busy,
			Skipped:      st.Skipped,
			BusyNs:       st.BusyNs,
			Sent:         st.Sent,
			Recv:         st.Recv,
			Windows:      se.Windows(),
			LookaheadEff: se.LookaheadEfficiency(),
		}
	}
	return recs
}

// RenderShardTable formats shard records as the per-shard table behind
// `rptrace shards`.
func RenderShardTable(recs []ShardRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %12s %10s %10s %12s %10s %10s\n",
		"shard", "events", "busy_win", "skip_win", "busy_ms", "sent", "recv")
	var events, sent, recv uint64
	var busyNs int64
	for _, r := range recs {
		fmt.Fprintf(&b, "%-6d %12d %10d %10d %12.3f %10d %10d\n",
			r.Shard, r.Events, r.Busy, r.Skipped, float64(r.BusyNs)/1e6, r.Sent, r.Recv)
		events += r.Events
		sent += r.Sent
		recv += r.Recv
		busyNs += r.BusyNs
	}
	if len(recs) > 0 {
		fmt.Fprintf(&b, "%-6s %12d %10s %10s %12.3f %10d %10d\n",
			"total", events, "", "", float64(busyNs)/1e6, sent, recv)
		fmt.Fprintf(&b, "windows=%d lookahead_efficiency=%.2f\n",
			recs[0].Windows, recs[0].LookaheadEff)
	}
	return b.String()
}
