package workload

import (
	"fmt"
	"testing"

	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

func TestTrainingFanoutShape(t *testing.T) {
	tds := TrainingFanout(4, 3, 1<<30, sim.Second)
	if len(tds) != 12 {
		t.Fatalf("len = %d", len(tds))
	}
	seen := map[string]int{}
	for i, td := range tds {
		if len(td.InputData) != 1 {
			t.Fatalf("task %d has %d input directives", i, len(td.InputData))
		}
		d := td.InputData[0]
		if d.Source != spec.TierSharedFS || d.Dest != spec.TierNodeLocal {
			t.Errorf("task %d tiers = %v→%v", i, d.Source, d.Dest)
		}
		seen[d.Dataset]++
		if err := td.Validate(56, 8); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 4 {
		t.Errorf("distinct shards = %d, want 4", len(seen))
	}
	for ds, n := range seen {
		if n != 3 {
			t.Errorf("shard %s read %d times, want 3", ds, n)
		}
	}
	// Interleaved: consecutive tasks use different shards.
	if tds[0].InputData[0].Dataset == tds[1].InputData[0].Dataset {
		t.Error("tasks not interleaved across shards")
	}
}

func TestCheckpointWritersShape(t *testing.T) {
	tds := CheckpointWriters(5, sim.Second, 1<<28, spec.TierSharedFS)
	names := map[string]bool{}
	for _, td := range tds {
		if len(td.OutputData) != 1 || len(td.InputData) != 0 {
			t.Fatalf("directives: in=%d out=%d", len(td.InputData), len(td.OutputData))
		}
		names[td.OutputData[0].Dataset] = true
	}
	if len(names) != 5 {
		t.Errorf("checkpoints must be private per writer: %d distinct", len(names))
	}
}

func TestHandoffIsBijectivePerStage(t *testing.T) {
	for _, width := range []int{7, 16, 448} {
		batches := Handoff(3, width, 1<<20, sim.Second)
		if len(batches) != 3 {
			t.Fatalf("stages = %d", len(batches))
		}
		if len(batches[0][0].InputData) != 0 {
			t.Error("stage 0 must not consume")
		}
		if len(batches[2][0].OutputData) != 0 {
			t.Error("last stage must not produce")
		}
		for s := 1; s < 3; s++ {
			consumed := map[string]int{}
			for _, td := range batches[s] {
				consumed[td.InputData[0].Dataset]++
			}
			if len(consumed) != width {
				t.Errorf("width %d stage %d: %d distinct datasets consumed, want %d (shuffle must be a bijection)",
					width, s, len(consumed), width)
			}
			// The shuffle must not be the identity (that would fake
			// locality through accidental slot alignment).
			identity := 0
			for i, td := range batches[s] {
				if td.InputData[0].Dataset == batches[s-1][i].OutputData[0].Dataset {
					identity++
				}
			}
			if identity > width/4 {
				t.Errorf("width %d stage %d: %d/%d consumers aligned with producer index", width, s, identity, width)
			}
		}
	}
}

// TestHandoffDirectivesAreOwnLists: a stage's directives share one array,
// so appending to one task's list must not write into its neighbour's.
func TestHandoffDirectivesAreOwnLists(t *testing.T) {
	stage := Handoff(3, 4, 1, sim.Second)[1]
	in, out := stage[1].InputData[0], stage[1].OutputData[0]
	extra := spec.StagingDirective{Dataset: "extra"}
	stage[0].InputData = append(stage[0].InputData, extra)
	stage[0].OutputData = append(stage[0].OutputData, extra)
	if got := stage[1].InputData; len(got) != 1 || got[0] != in {
		t.Errorf("task 1 inputs %+v after an append to task 0's, want [%+v]", got, in)
	}
	if got := stage[1].OutputData; len(got) != 1 || got[0] != out {
		t.Errorf("task 1 outputs %+v after an append to task 0's, want [%+v]", got, out)
	}
}

// TestHandoffNames: dataset names and stage labels keep the bytes of their
// fmt formats, "handoff.s%d.%03d" and "stage.%d", across the zero-padding
// boundaries and past three digits.
func TestHandoffNames(t *testing.T) {
	const width = 1003
	batches := Handoff(3, width, 1, sim.Second)
	for s, batch := range batches {
		for i, td := range batch {
			if want := fmt.Sprintf("stage.%d", s); td.Stage != want {
				t.Fatalf("stage %d task %d: label %q, want %q", s, i, td.Stage, want)
			}
			if s < len(batches)-1 {
				if got, want := td.OutputData[0].Dataset, fmt.Sprintf("handoff.s%d.%03d", s, i); got != want {
					t.Fatalf("stage %d task %d: output %q, want %q", s, i, got, want)
				}
			}
		}
	}
	if got := handoffNames(12, 1)[0]; got != "handoff.s12.000" {
		t.Fatalf("handoffNames(12, 1) = %q", got)
	}
}
