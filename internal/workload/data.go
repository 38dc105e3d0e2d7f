package workload

// Data-intensive workload generators for the staging subsystem: the three
// motifs that dominate hybrid AI-HPC data traffic. Training-set fan-out
// (many readers share few large shards — locality decides whether the
// parallel FS is read once or hundreds of times), checkpoint write
// pressure (every writer hits the shared FS at once), and
// producer→consumer dataset handoff across DAG stages (a consumer placed
// on its producer's node reads from local NVMe instead of the PFS).

import (
	"fmt"
	"strconv"
	"strings"

	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// TrainingFanout returns shards×perShard single-core tasks; task i reads
// training shard i%shards (shardBytes, parallel FS → node-local) before
// computing for d. Tasks interleave across shards so every shard is in
// flight at once — the access pattern of data-parallel training epochs.
func TrainingFanout(shards, perShard int, shardBytes int64, d sim.Duration) []*spec.TaskDescription {
	out := make([]*spec.TaskDescription, 0, shards*perShard)
	for i := 0; i < shards*perShard; i++ {
		shard := i % shards
		out = append(out, &spec.TaskDescription{
			Kind:         spec.Executable,
			Coupling:     spec.DataCoupled,
			CoresPerRank: 1,
			Ranks:        1,
			Duration:     d,
			InputData: []spec.StagingDirective{{
				Dataset:   fmt.Sprintf("train.shard.%03d", shard),
				SizeBytes: shardBytes,
				Source:    spec.TierSharedFS,
				Dest:      spec.TierNodeLocal,
			}},
		})
	}
	return out
}

// CheckpointWriters returns n single-core tasks that compute for d and
// then each write a private checkpoint of ckptBytes to dest (typically
// the shared FS) — synchronized write pressure on the shared channels.
func CheckpointWriters(n int, d sim.Duration, ckptBytes int64, dest spec.StageTier) []*spec.TaskDescription {
	out := make([]*spec.TaskDescription, n)
	for i := range out {
		out[i] = &spec.TaskDescription{
			Kind:         spec.Executable,
			Coupling:     spec.LooselyCoupled,
			CoresPerRank: 1,
			Ranks:        1,
			Duration:     d,
			OutputData: []spec.StagingDirective{{
				Dataset:   fmt.Sprintf("ckpt.%06d", i),
				SizeBytes: ckptBytes,
				Dest:      dest,
			}},
		}
	}
	return out
}

// Handoff returns a stages×width producer→consumer pipeline: stage 0
// tasks each produce a handoff dataset; every later stage's task i
// consumes one dataset produced by stage s-1 (node-local dest) and
// produces its own. Consumers read a strided permutation of the previous
// stage's outputs (a fixed shuffle, the all-to-all exchange of real
// pipelines) rather than index i, so a consumer only reads locally if the
// scheduler deliberately places it on its producer's node. Batches are
// returned per stage — submit stage s+1 after stage s completes (the DAG
// dependency).
//
// A stage is built from a few arrays, not per task: its descriptions are
// Copies of one template, each task's directive list is a capacity-1
// window of one directive array (appending to it copies instead of
// overwriting the neighbour's), and its dataset names are carved from one
// string.
func Handoff(stages, width int, bytes int64, d sim.Duration) [][]*spec.TaskDescription {
	// A stride coprime with width makes the shuffle a bijection: every
	// dataset is consumed exactly once per stage.
	stride := width/2 + 1
	for gcd(stride, width) != 1 {
		stride++
	}
	out := make([][]*spec.TaskDescription, stages)
	var prev []spec.StagingDirective // stage s-1's outputs, by producer index
	for s := 0; s < stages; s++ {
		batch := Copies(spec.TaskDescription{
			Kind:         spec.Executable,
			Coupling:     spec.DataCoupled,
			CoresPerRank: 1,
			Ranks:        1,
			Duration:     d,
			Stage:        "stage." + strconv.Itoa(s),
		}, width)
		if s > 0 {
			in := make([]spec.StagingDirective, width)
			for i, td := range batch {
				in[i] = spec.StagingDirective{
					Dataset:   prev[(i*stride+s)%width].Dataset,
					SizeBytes: bytes,
					Source:    spec.TierSharedFS,
					Dest:      spec.TierNodeLocal,
				}
				td.InputData = in[i : i+1 : i+1]
			}
		}
		var produced []spec.StagingDirective
		if s < stages-1 {
			produced = make([]spec.StagingDirective, width)
			for i, name := range handoffNames(s, width) {
				produced[i] = spec.StagingDirective{Dataset: name, SizeBytes: bytes, Dest: spec.TierSharedFS}
				batch[i].OutputData = produced[i : i+1 : i+1]
			}
		}
		out[s] = batch
		prev = produced
	}
	return out
}

// handoffNames returns the names of the width datasets stage produces:
// "handoff.s", the stage, ".", and the producer index zero-padded to three
// digits — the bytes of fmt's "handoff.s%d.%03d". The names are substrings
// of one string.
func handoffNames(stage, width int) []string {
	var pre, num [24]byte
	prefix := append(strconv.AppendInt(append(pre[:0], "handoff.s"...), int64(stage), 10), '.')
	// No index is wider than the last one or than its three-digit padding.
	widest := max(3, len(strconv.AppendInt(num[:0], int64(width-1), 10)))
	var sb strings.Builder
	sb.Grow(width * (len(prefix) + widest))
	names := make([]string, width)
	for i := range names {
		from := sb.Len()
		sb.Write(prefix)
		digits := strconv.AppendInt(num[:0], int64(i), 10)
		for k := len(digits); k < 3; k++ {
			sb.WriteByte('0')
		}
		sb.Write(digits)
		// Bytes already written never move, so each name is a substring
		// of the stage's one string.
		names[i] = sb.String()[from:]
	}
	return names
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
