package workflow

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rpgo/internal/core"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// TestRandomDAGsRespectDependencies generates random layered DAGs and
// verifies the fundamental scheduling invariant: no node is submitted
// before all of its dependencies completed, and every node runs exactly
// once.
func TestRandomDAGsRespectDependencies(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		layers := r.Intn(4) + 2
		var prev []string
		id := 0
		for l := 0; l < layers; l++ {
			width := r.Intn(3) + 1
			var cur []string
			for w := 0; w < width; w++ {
				name := fmt.Sprintf("n%d", id)
				id++
				// Depend on a random subset of the previous layer.
				var deps []string
				for _, p := range prev {
					if r.Intn(2) == 0 {
						deps = append(deps, p)
					}
				}
				// Guarantee connectivity beyond layer 0.
				if l > 0 && len(deps) == 0 {
					deps = append(deps, prev[r.Intn(len(prev))])
				}
				tds := make([]*spec.TaskDescription, r.Intn(3)+1)
				for i := range tds {
					tds[i] = &spec.TaskDescription{
						CoresPerRank: 1, Ranks: 1,
						Duration: sim.Duration(r.Intn(20)+1) * sim.Second,
					}
				}
				if err := g.Add(&Node{Name: name, Tasks: tds, After: deps}); err != nil {
					t.Log(err)
					return false
				}
				cur = append(cur, name)
			}
			prev = cur
		}

		sess := core.NewSession(core.Config{Seed: uint64(seed)})
		pilot, err := sess.SubmitPilot(spec.PilotDescription{
			Nodes:      2,
			Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
		})
		if err != nil {
			t.Log(err)
			return false
		}
		tm := sess.TaskManager(pilot)
		run, err := NewRun(g, sess, tm)
		if err != nil {
			t.Log(err)
			return false
		}
		if err := run.Start(); err != nil {
			t.Log(err)
			return false
		}
		if err := tm.Wait(); err != nil {
			t.Log(err)
			return false
		}
		if !run.done {
			return false
		}
		for _, n := range g.Nodes() {
			if n.Completed < n.Submitted {
				return false
			}
			for _, dep := range n.After {
				if n.Submitted < g.nodes[dep].Completed {
					t.Logf("node %s submitted at %v before dep %s completed at %v",
						n.Name, n.Submitted, dep, g.nodes[dep].Completed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
