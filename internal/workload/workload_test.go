package workload

import (
	"reflect"
	"testing"

	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

func TestNullAndDummy(t *testing.T) {
	nulls := Null(10)
	if len(nulls) != 10 {
		t.Fatalf("null count %d", len(nulls))
	}
	for _, td := range nulls {
		if td.Duration != 0 || td.Kind != spec.Executable || td.TotalCores() != 1 {
			t.Fatalf("null task: %+v", td)
		}
	}
	dummies := Dummy(5, 180*sim.Second)
	for _, td := range dummies {
		if td.Duration != 180*sim.Second {
			t.Fatalf("dummy duration: %v", td.Duration)
		}
	}
	funcs := DummyFunctions(5, sim.Second)
	for _, td := range funcs {
		if td.Kind != spec.Function {
			t.Fatal("function workload kind wrong")
		}
	}
}

func TestMixedInterleaves(t *testing.T) {
	tds := Mixed(3, 5, sim.Second)
	if len(tds) != 8 {
		t.Fatalf("mixed count %d", len(tds))
	}
	// First four pairs alternate exec/func while both remain.
	if tds[0].Kind != spec.Executable || tds[1].Kind != spec.Function {
		t.Fatal("mixed should interleave starting with exec")
	}
	nExec, nFunc := 0, 0
	for _, td := range tds {
		if td.Kind == spec.Executable {
			nExec++
		} else {
			nFunc++
		}
	}
	if nExec != 3 || nFunc != 5 {
		t.Fatalf("mixed split %d/%d", nExec, nFunc)
	}
}

func TestFullDensityCount(t *testing.T) {
	if FullDensityCount(4, 56) != 896 {
		t.Fatalf("4 nodes: %d", FullDensityCount(4, 56))
	}
	if FullDensityCount(1024, 56) != 229376 {
		t.Fatalf("1024 nodes: %d", FullDensityCount(1024, 56))
	}
}

func TestTag(t *testing.T) {
	tds := Tag(Null(3), "wf", "stage1")
	for _, td := range tds {
		if td.Workflow != "wf" || td.Stage != "stage1" {
			t.Fatalf("tag: %+v", td)
		}
	}
}

func TestImpeccablePipelinesValid(t *testing.T) {
	pipes := ImpeccablePipelines()
	if len(pipes) != 6 {
		t.Fatalf("pipelines = %d, want 6 sub-workflows", len(pipes))
	}
	names := map[string]bool{}
	for i, p := range pipes {
		if names[p.Template.Workflow] {
			t.Fatalf("duplicate workflow %s", p.Template.Workflow)
		}
		names[p.Template.Workflow] = true
		td := p.Template.TD
		if td.Duration != ImpeccableTaskDuration {
			t.Errorf("%s: duration %v, want 180s", p.Template.Workflow, td.Duration)
		}
		if err := td.Validate(56, 8); err != nil {
			t.Errorf("%s: %v", p.Template.Workflow, err)
		}
		if p.BatchBase <= 0 || p.ItersBase <= 0 {
			t.Errorf("%s: non-positive scaling bases", p.Template.Workflow)
		}
		// A task is a copy of the template: changing the copy leaves the
		// template as it was built.
		td.UID, td.Nodes, td.Ranks, td.MaxRetries = "changed", 2, 1, 3
		td.Workflow, td.Stage = "changed", "changed"
		if fresh := ImpeccablePipelines()[i].Template.TD; !reflect.DeepEqual(p.Template.TD, fresh) {
			t.Errorf("%s: changing a copy changed the template to %+v", p.Template.Workflow, p.Template.TD)
		}
		// Copies share slice fields, so a template must set none.
		v := reflect.ValueOf(p.Template.TD)
		for f := 0; f < v.NumField(); f++ {
			if v.Field(f).Kind() == reflect.Slice && !v.Field(f).IsNil() {
				t.Errorf("%s: template sets slice field %s", p.Template.Workflow, v.Type().Field(f).Name)
			}
		}
	}
	for _, wf := range []string{"docking", "sst-training", "sst-inference", "scoring", "esmacs", "reinvent"} {
		if !names[wf] {
			t.Errorf("missing workflow %s", wf)
		}
	}
}

func TestImpeccableModalities(t *testing.T) {
	// The campaign must exercise both task modalities (paper §2).
	var execs, funcs int
	for _, p := range ImpeccablePipelines() {
		if p.Template.TD.Kind == spec.Function {
			funcs++
		} else {
			execs++
		}
	}
	if execs == 0 || funcs == 0 {
		t.Fatalf("modalities: %d exec, %d func pipelines", execs, funcs)
	}
}
