package flux

import (
	"testing"
	"testing/quick"

	"rpgo/internal/launch"
	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/slurm"
	"rpgo/internal/spec"
)

// TestTokenBucketRateBound: for random seeds and partition sizes, the
// number of starts in any window never exceeds rate × window + burst
// capacity (one cycle's worth) by more than shell-latency slack. This is
// the invariant that makes the calibrated dispatch rates trustworthy.
func TestTokenBucketRateBound(t *testing.T) {
	f := func(seed uint64, nodesRaw uint8) bool {
		nodes := int(nodesRaw)%8 + 1
		eng := sim.NewEngine()
		src := rng.New(seed)
		params := model.Default()
		ctrl := slurm.NewController(eng, params.Srun, src)
		cluster := platform.NewCluster(platform.Frontier(1), nodes)
		alloc := cluster.Allocate(nodes)
		in := NewInstance(Config{Name: "flux.p", Params: params.Flux}, eng, ctrl, alloc, src)

		var starts []sim.Time
		n := 300
		for i := 0; i < n; i++ {
			in.Submit(&launch.Request{
				UID:    "t",
				TD:     &spec.TaskDescription{CoresPerRank: 1, Ranks: 1},
				Events: events{start: func(at sim.Time) { starts = append(starts, at) }},
			})
		}
		eng.MaxSteps = 1_000_000
		eng.Run()
		if len(starts) != n {
			return false
		}
		rate := in.Rate()
		burst := rate*params.Flux.Cycle + 1
		// Sliding 2 s windows.
		const window = 2.0
		lo := 0
		for hi := range starts {
			for starts[hi].Sub(starts[lo]).Seconds() > window {
				lo++
			}
			count := float64(hi - lo + 1)
			// Allow shell-latency regrouping slack of 35 %.
			if count > (rate*window+burst)*1.35 {
				t.Logf("seed=%d nodes=%d: %v starts in %.0fs window, rate=%.1f",
					seed, nodes, count, window, rate)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAllTasksEventuallyStart: whatever the seed, a feasible workload on a
// healthy instance leaves nothing behind (no lost tokens, no stuck queue).
func TestAllTasksEventuallyStart(t *testing.T) {
	f := func(seed uint64, extra uint8) bool {
		eng := sim.NewEngine()
		src := rng.New(seed)
		params := model.Default()
		ctrl := slurm.NewController(eng, params.Srun, src)
		cluster := platform.NewCluster(platform.Frontier(1), 2)
		alloc := cluster.Allocate(2)
		in := NewInstance(Config{Name: "flux.q", Params: params.Flux}, eng, ctrl, alloc, src)
		n := 112 + int(extra) // oversubscribed: forces multiple waves
		done := 0
		for i := 0; i < n; i++ {
			in.Submit(&launch.Request{
				UID: "t",
				TD:  &spec.TaskDescription{CoresPerRank: 1, Ranks: 1, Duration: 30 * sim.Second},
				Events: events{done: func(_ sim.Time, failed bool, _ string) {
					if !failed {
						done++
					}
				}},
			})
		}
		eng.MaxSteps = 1_000_000
		eng.Run()
		return done == n && in.Stats().QueueLen == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
