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
func Handoff(stages, width int, bytes int64, d sim.Duration) [][]*spec.TaskDescription {
	// A stride coprime with width makes the shuffle a bijection: every
	// dataset is consumed exactly once per stage.
	stride := width/2 + 1
	for gcd(stride, width) != 1 {
		stride++
	}
	out := make([][]*spec.TaskDescription, stages)
	var prev []string // stage s-1's dataset names, by producer index
	for s := 0; s < stages; s++ {
		stage := "stage." + strconv.Itoa(s)
		var names []string
		if s < stages-1 {
			names = handoffNames(s, width)
		}
		batch := make([]*spec.TaskDescription, width)
		for i := range batch {
			td := &spec.TaskDescription{
				Kind:         spec.Executable,
				Coupling:     spec.DataCoupled,
				CoresPerRank: 1,
				Ranks:        1,
				Duration:     d,
				Stage:        stage,
			}
			if s > 0 {
				td.InputData = []spec.StagingDirective{{
					Dataset:   prev[(i*stride+s)%width],
					SizeBytes: bytes,
					Source:    spec.TierSharedFS,
					Dest:      spec.TierNodeLocal,
				}}
			}
			if s < stages-1 {
				td.OutputData = []spec.StagingDirective{{
					Dataset:   names[i],
					SizeBytes: bytes,
					Dest:      spec.TierSharedFS,
				}}
			}
			batch[i] = td
		}
		out[s] = batch
		prev = names
	}
	return out
}

// handoffNames returns the names of the width datasets stage produces:
// "handoff.s", the stage, ".", and the producer index zero-padded to three
// digits — the bytes of fmt's "handoff.s%d.%03d".
func handoffNames(stage, width int) []string {
	names := make([]string, width)
	b := make([]byte, 0, 32)
	b = append(strconv.AppendInt(append(b, "handoff.s"...), int64(stage), 10), '.')
	n := len(b)
	for i := range names {
		b = b[:n]
		if i < 100 {
			b = append(b, '0')
		}
		if i < 10 {
			b = append(b, '0')
		}
		names[i] = string(strconv.AppendInt(b, int64(i), 10))
	}
	return names
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
