package spec

import (
	"math"
	"strings"
	"testing"

	"rpgo/internal/sim"
)

func TestTotals(t *testing.T) {
	td := TaskDescription{Ranks: 4, CoresPerRank: 7, GPUsPerRank: 2}
	if td.TotalCores() != 28 || td.TotalGPUs() != 8 {
		t.Fatalf("totals: %d cores, %d gpus", td.TotalCores(), td.TotalGPUs())
	}
	// Zero ranks/cores default to 1/1.
	var zero TaskDescription
	if zero.TotalCores() != 1 || zero.TotalGPUs() != 0 {
		t.Fatalf("zero-value totals: %d cores %d gpus", zero.TotalCores(), zero.TotalGPUs())
	}
}

func TestMultiNode(t *testing.T) {
	if (&TaskDescription{Nodes: 1}).MultiNode() {
		t.Error("1 node is not multi-node")
	}
	if !(&TaskDescription{Nodes: 2}).MultiNode() {
		t.Error("2 nodes is multi-node")
	}
}

func TestTaskValidation(t *testing.T) {
	cases := []struct {
		name string
		td   TaskDescription
		ok   bool
	}{
		{"simple", TaskDescription{CoresPerRank: 1, Ranks: 1}, true},
		{"negative duration", TaskDescription{Duration: -sim.Second}, false},
		{"negative cores", TaskDescription{CoresPerRank: -1}, false},
		{"too many cores for one node", TaskDescription{Ranks: 57, CoresPerRank: 1}, false},
		{"too many gpus for one node", TaskDescription{Ranks: 9, GPUsPerRank: 1}, false},
		{"multi-node ok", TaskDescription{Nodes: 4, Ranks: 8, CoresPerRank: 7}, true},
		{"multi-node function", TaskDescription{Kind: Function, Nodes: 2, Ranks: 2}, false},
		{"staged input", TaskDescription{CoresPerRank: 1, Ranks: 1,
			InputData: []StagingDirective{{Dataset: "w", SizeBytes: 1 << 30, Dest: TierNodeLocal}}}, true},
		{"unnamed dataset", TaskDescription{CoresPerRank: 1, Ranks: 1,
			InputData: []StagingDirective{{SizeBytes: 1}}}, false},
		{"negative dataset size", TaskDescription{CoresPerRank: 1, Ranks: 1,
			OutputData: []StagingDirective{{Dataset: "o", SizeBytes: -1}}}, false},
		{"node-local source", TaskDescription{CoresPerRank: 1, Ranks: 1,
			InputData: []StagingDirective{{Dataset: "w", Source: TierNodeLocal}}}, false},
		{"output ignores source", TaskDescription{CoresPerRank: 1, Ranks: 1,
			OutputData: []StagingDirective{{Dataset: "o", SizeBytes: 1, Source: TierNodeLocal, Dest: TierSharedFS}}}, true},
		{"invalid tier", TaskDescription{CoresPerRank: 1, Ranks: 1,
			OutputData: []StagingDirective{{Dataset: "o", Dest: StageTier(9)}}}, false},
	}
	for _, c := range cases {
		err := c.td.Validate(56, 8)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestPilotValidation(t *testing.T) {
	ok := PilotDescription{Nodes: 4}
	if err := ok.Validate(); err != nil {
		t.Fatalf("default pilot: %v", err)
	}
	bad := []PilotDescription{
		{Nodes: 0},
		{Nodes: 4, SMT: 3},
		{Nodes: 4, Partitions: []PartitionConfig{{Backend: BackendFlux, Instances: 0}}},
		{Nodes: 4, Partitions: []PartitionConfig{{Backend: BackendAuto, Instances: 1}}},
		{Nodes: 4, Partitions: []PartitionConfig{{Backend: BackendFlux, Instances: 2, NodesPerInstance: 3}}},
		{Nodes: 4, Partitions: []PartitionConfig{{Backend: Backend(7), Instances: 1}}},
		{Nodes: 4, Partitions: []PartitionConfig{{Backend: BackendFlux, Instances: 5}}},
		{Nodes: 4, Partitions: []PartitionConfig{{Backend: BackendFlux, Instances: 1, NodesPerInstance: -1}}},
		{Nodes: 4, Partitions: []PartitionConfig{{Backend: BackendFlux, Instances: 1, NodeShare: math.NaN()}}},
		// Three nodes shared evenly: the flux group gets one for two instances.
		{Nodes: 3, Partitions: []PartitionConfig{
			{Backend: BackendFlux, Instances: 2}, {Backend: BackendDragon, Instances: 1}}},
	}
	for i, pd := range bad {
		if err := pd.Validate(); err == nil {
			t.Errorf("bad pilot %d validated", i)
		}
	}
	// Routing picks a backend's first group, so a second one would idle.
	twice := PilotDescription{Nodes: 2, Partitions: []PartitionConfig{
		{Backend: BackendFlux, Instances: 1}, {Backend: BackendFlux, Instances: 1}}}
	if err := twice.Validate(); err == nil || !strings.Contains(err.Error(), "flux") {
		t.Errorf("two flux groups: %v, want an error naming flux", err)
	}
	fixed := PilotDescription{Nodes: 8, Partitions: []PartitionConfig{
		{Backend: BackendFlux, Instances: 2, NodesPerInstance: 2},
		{Backend: BackendDragon, Instances: 4, NodesPerInstance: 1},
	}}
	if err := fixed.Validate(); err != nil {
		t.Fatalf("fixed layout: %v", err)
	}
}

func TestServiceDescriptionValidate(t *testing.T) {
	good := ServiceDescription{
		Name: "llm", Replicas: 2, BaseLatency: 100 * sim.Millisecond,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]ServiceDescription{
		"no name":         {Replicas: 1, BaseLatency: sim.Second},
		"no replicas":     {Name: "x", BaseLatency: sim.Second},
		"no base latency": {Name: "x", Replicas: 1},
		"negative footpr": {Name: "x", Replicas: 1, BaseLatency: sim.Second, GPUsPerReplica: -1},
		"max < min":       {Name: "x", Replicas: 2, BaseLatency: sim.Second, MinReplicas: 4, MaxReplicas: 2},
		"initial > max":   {Name: "x", Replicas: 9, BaseLatency: sim.Second, MaxReplicas: 4},
		"negative window": {Name: "x", Replicas: 1, BaseLatency: sim.Second, BatchWindow: -1},
	}
	for name, sd := range cases {
		if err := sd.Validate(); err == nil {
			t.Errorf("%s: validation should fail", name)
		}
	}
	// Defaults and the latency model.
	if good.BatchCap() != 1 || good.CoresEach() != 1 {
		t.Error("BatchCap/CoresEach defaults")
	}
	sd := ServiceDescription{BaseLatency: 100 * sim.Millisecond, PerItemLatency: 10 * sim.Millisecond}
	if sd.BatchLatency(0) != 0 || sd.BatchLatency(1) != 100*sim.Millisecond || sd.BatchLatency(5) != 140*sim.Millisecond {
		t.Errorf("batch latency: %v / %v / %v", sd.BatchLatency(0), sd.BatchLatency(1), sd.BatchLatency(5))
	}
	if good.CeilReplicas() != 2 {
		t.Errorf("a fixed-size service's ceiling is %d, want its 2 replicas", good.CeilReplicas())
	}
}

func TestTaskServiceCoupling(t *testing.T) {
	td := TaskDescription{
		CoresPerRank: 1, Ranks: 1, Duration: sim.Second,
		Requests: []ServiceCall{{Service: "llm", Count: 4, Phase: 0.5}},
	}
	if err := td.Validate(56, 8); err != nil {
		t.Fatal(err)
	}
	// A service replica cannot itself couple to services.
	svc := td
	svc.Service = true
	if err := svc.Validate(56, 8); err == nil {
		t.Fatal("service task with Requests must be invalid")
	}
	bad := td
	bad.Requests = []ServiceCall{{Service: "llm", Phase: 1.5}}
	if err := bad.Validate(56, 8); err == nil {
		t.Fatal("phase outside [0,1] must be invalid")
	}
	bad.Requests = []ServiceCall{{Count: 1}}
	if err := bad.Validate(56, 8); err == nil {
		t.Fatal("empty service name must be invalid")
	}
	if (ServiceCall{}).NumRequests() != 1 {
		t.Fatal("zero Count should default to 1 request")
	}
}

func TestStringers(t *testing.T) {
	if Executable.String() != "executable" || Function.String() != "function" {
		t.Error("TaskKind strings")
	}
	if BackendFlux.String() != "flux" || BackendDragon.String() != "dragon" ||
		BackendSrun.String() != "srun" || BackendAuto.String() != "auto" {
		t.Error("Backend strings")
	}
	if LooselyCoupled.String() != "loose" || TightlyCoupled.String() != "tight" || DataCoupled.String() != "data" {
		t.Error("Coupling strings")
	}
	if TaskKind(9).String() == "" || Backend(9).String() == "" || Coupling(9).String() == "" {
		t.Error("unknown value formatting")
	}
	if TierSharedFS.String() != "sharedfs" || TierNodeLocal.String() != "nodelocal" ||
		TierBurstBuffer.String() != "burstbuffer" || StageTier(9).String() != "StageTier(9)" {
		t.Error("StageTier strings")
	}
	if PlacePack.String() != "pack" || PlaceDataAware.String() != "data-aware" ||
		PlacementPolicy(9).String() != "PlacementPolicy(9)" {
		t.Error("PlacementPolicy strings")
	}
}
