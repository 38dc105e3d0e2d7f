package agent

// Tests for the data-staging subsystem at the agent level: directive
// staging through the storage hierarchy, data-aware placement, and
// determinism of staging traces under contention.

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"strconv"
	"testing"
	"unsafe"

	"rpgo/internal/data"
	"rpgo/internal/launch"
	"rpgo/internal/model"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
	"rpgo/internal/states"
	"rpgo/internal/workload"
)

// submitAll pushes a workload through the rig's agent and runs to idle.
func (r *rig) submitAll(t *testing.T, tds []*spec.TaskDescription, prefix string) []*Task {
	t.Helper()
	out := make([]*Task, len(tds))
	for i, td := range tds {
		uid := prefix + "." + itoa6(i)
		out[i] = r.task(td, uid)
		r.agent.Submit(out[i], func(*Task) {})
	}
	r.eng.Run()
	return out
}

func itoa6(n int) string {
	buf := []byte{'0', '0', '0', '0', '0', '0'}
	for i := 5; i >= 0 && n > 0; i-- {
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf)
}

func TestStagingDirectiveMovesBytes(t *testing.T) {
	r := newRig(t, spec.PilotDescription{Nodes: 2})
	td := &spec.TaskDescription{
		Kind: spec.Executable, CoresPerRank: 1, Ranks: 1,
		Duration: 10 * sim.Second,
		InputData: []spec.StagingDirective{{
			Dataset: "weights", SizeBytes: 2 * data.GB,
			Source: spec.TierSharedFS, Dest: spec.TierNodeLocal,
		}},
		OutputData: []spec.StagingDirective{{
			Dataset: "result", SizeBytes: 1 * data.GB,
			Dest: spec.TierSharedFS,
		}},
	}
	tk := r.task(td, "t0")
	r.agent.Submit(tk, func(*Task) {})
	r.eng.Run()

	if tk.State != states.TaskDone {
		t.Fatalf("task state %v (%s)", tk.State, tk.Reason)
	}
	tr := tk.Trace
	if tr.BytesIn != 2*data.GB || tr.BytesOut != 1*data.GB {
		t.Errorf("bytes in/out = %d/%d", tr.BytesIn, tr.BytesOut)
	}
	if tr.StageIn <= 0 || tr.StageOut <= 0 {
		t.Errorf("stage durations = %v/%v, want > 0", tr.StageIn, tr.StageOut)
	}
	if tr.DataMisses != 1 {
		t.Errorf("misses = %d, want 1 (cold read)", tr.DataMisses)
	}
	// Wall time = staging + compute + write-back.
	wall := tr.End.Sub(tr.Start)
	if wall <= td.Duration {
		t.Errorf("wall %v must exceed compute %v (staging occupies the node)", wall, td.Duration)
	}
	trs := r.prof.Transfers()
	if len(trs) != 2 {
		t.Fatalf("transfers = %d, want 2 (one in, one out)", len(trs))
	}
	sys := r.agent.Data()
	if sys.BytesMoved() != 3*data.GB {
		t.Errorf("BytesMoved = %d, want 3GB", sys.BytesMoved())
	}
	if len(sys.Registry().NodesHolding("weights")) != 1 {
		t.Error("weights replica not registered")
	}
	if !sys.Registry().HasTier("result", spec.TierSharedFS) {
		t.Error("result not registered on shared FS")
	}
}

func TestSecondTaskHitsReplica(t *testing.T) {
	r := newRig(t, spec.PilotDescription{Nodes: 1, Placement: spec.PlaceDataAware})
	mk := func() *spec.TaskDescription {
		return &spec.TaskDescription{
			Kind: spec.Executable, CoresPerRank: 1, Ranks: 1,
			Duration: sim.Second,
			InputData: []spec.StagingDirective{{
				Dataset: "shard", SizeBytes: data.GB,
				Source: spec.TierSharedFS, Dest: spec.TierNodeLocal,
			}},
		}
	}
	a := r.task(mk(), "a")
	r.agent.Submit(a, func(*Task) {})
	r.eng.Run()
	b := r.task(mk(), "b")
	r.agent.Submit(b, func(*Task) {})
	r.eng.Run()
	if a.Trace.DataMisses != 1 || a.Trace.DataHits != 0 {
		t.Errorf("first task hits/misses = %d/%d, want 0/1", a.Trace.DataHits, a.Trace.DataMisses)
	}
	if b.Trace.DataHits != 1 || b.Trace.DataMisses != 0 {
		t.Errorf("second task hits/misses = %d/%d, want 1/0", b.Trace.DataHits, b.Trace.DataMisses)
	}
	if b.Trace.BytesIn != 0 {
		t.Errorf("hit moved %d bytes", b.Trace.BytesIn)
	}
}

// TestDisabledBurstBufferStagesNothing: with the burst buffer disabled, an
// input headed for it from the parallel FS is already where it would land,
// since the buffer degrades to the parallel FS. Neither of two tasks that
// read it moves a byte or counts a miss.
func TestDisabledBurstBufferStagesNothing(t *testing.T) {
	params := model.Default()
	params.Data.BurstBufferPerNode = 0
	r := newRigParams(t, spec.PilotDescription{Nodes: 1}, params)
	var tasks []*Task
	for _, uid := range []string{"a", "b"} {
		tk := r.task(&spec.TaskDescription{
			Kind: spec.Executable, CoresPerRank: 1, Ranks: 1, Duration: sim.Second,
			InputData: []spec.StagingDirective{{Dataset: "bb", SizeBytes: data.GB,
				Source: spec.TierSharedFS, Dest: spec.TierBurstBuffer}},
		}, uid)
		r.agent.Submit(tk, func(*Task) {})
		r.eng.Run()
		tasks = append(tasks, tk)
	}
	for _, tk := range tasks {
		if tk.State != states.TaskDone {
			t.Fatalf("task %s: %v (%s)", tk.TD.UID, tk.State, tk.Reason)
		}
		if tk.Trace.DataMisses != 0 || tk.Trace.BytesIn != 0 {
			t.Errorf("task %s: %d misses, %d B in, want none", tk.TD.UID, tk.Trace.DataMisses, tk.Trace.BytesIn)
		}
	}
	if n := len(r.prof.Transfers()); n != 0 {
		t.Errorf("%d transfers, want 0", n)
	}
}

func TestSharedTierStageInCoalesces(t *testing.T) {
	r := newRig(t, spec.PilotDescription{Nodes: 2})
	mk := func() *spec.TaskDescription {
		return &spec.TaskDescription{
			Kind: spec.Executable, CoresPerRank: 1, Ranks: 1,
			Duration: sim.Second,
			InputData: []spec.StagingDirective{{
				Dataset: "weights", SizeBytes: data.GB,
				Source: spec.TierSharedFS, Dest: spec.TierBurstBuffer,
			}},
		}
	}
	a := r.task(mk(), "a")
	b := r.task(mk(), "b")
	r.agent.Submit(a, func(*Task) {})
	r.agent.Submit(b, func(*Task) {})
	r.eng.Run()
	if a.State != states.TaskDone || b.State != states.TaskDone {
		t.Fatalf("states %v/%v", a.State, b.State)
	}
	// One logical copy: a single tier transfer, the second task rides it.
	if n := len(r.prof.Transfers()); n != 1 {
		t.Fatalf("transfers = %d, want 1 (concurrent tier stage-ins must coalesce)", n)
	}
	if got := a.Trace.DataMisses + b.Trace.DataMisses; got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := a.Trace.DataHits + b.Trace.DataHits; got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := r.agent.Data().BytesMoved(); got != data.GB {
		t.Errorf("bytes moved = %d, want 1GB", got)
	}
}

// locality scenario shared by the comparison and determinism tests:
// 64 shards × 6 readers on 4 nodes (224 slots) — the first wave spreads
// each shard onto only one or two nodes, so later readers reuse replicas
// only if placement sends them there.
func fanout() []*spec.TaskDescription {
	return workload.TrainingFanout(64, 6, 4*data.GB, 2*sim.Second)
}

func runFanout(t *testing.T, policy spec.PlacementPolicy) ([]*Task, *rig) {
	t.Helper()
	r := newRig(t, spec.PilotDescription{Nodes: 4, Placement: policy})
	tasks := r.submitAll(t, fanout(), "fan")
	for _, tk := range tasks {
		if tk.State != states.TaskDone {
			t.Fatalf("task %s: %v (%s)", tk.TD.UID, tk.State, tk.Reason)
		}
	}
	return tasks, r
}

func makespanOf(tasks []*Task) sim.Duration {
	trs := make([]*profiler.TaskTrace, len(tasks))
	for i, tk := range tasks {
		trs[i] = tk.Trace
	}
	var first, last sim.Time = -1, -1
	for _, tr := range trs {
		if first < 0 || tr.Submit < first {
			first = tr.Submit
		}
		if tr.Final > last {
			last = tr.Final
		}
	}
	return last.Sub(first)
}

// runHandoff drives a 3-stage producer→consumer pipeline with a stage
// barrier (eng.Run drains each batch): consumers can only read locally if
// placement sends them to their producer's node.
func runHandoff(t *testing.T, policy spec.PlacementPolicy) ([]*Task, *rig) {
	t.Helper()
	r := newRig(t, spec.PilotDescription{Nodes: 4, Placement: policy})
	var all []*Task
	for si, batch := range workload.Handoff(3, 448, 4*data.GB, 2*sim.Second) {
		all = append(all, r.submitAll(t, batch, "h"+itoa6(si))...)
	}
	for _, tk := range all {
		if tk.State != states.TaskDone {
			t.Fatalf("task %s: %v (%s)", tk.TD.UID, tk.State, tk.Reason)
		}
	}
	return all, r
}

func TestDataAwarePlacementReducesMakespan(t *testing.T) {
	packTasks, packRig := runHandoff(t, spec.PlacePack)
	awareTasks, awareRig := runHandoff(t, spec.PlaceDataAware)

	packSpan := makespanOf(packTasks)
	awareSpan := makespanOf(awareTasks)
	packBytes := packRig.agent.Data().BytesMoved()
	awareBytes := awareRig.agent.Data().BytesMoved()
	t.Logf("pack:  makespan=%v bytes=%dGB hit=%.2f", packSpan, packBytes>>30, packRig.agent.Data().HitRate())
	t.Logf("aware: makespan=%v bytes=%dGB hit=%.2f", awareSpan, awareBytes>>30, awareRig.agent.Data().HitRate())
	if awareBytes >= packBytes {
		t.Errorf("data-aware moved %d bytes, pack %d — locality should reduce traffic", awareBytes, packBytes)
	}
	if awareSpan >= packSpan {
		t.Errorf("data-aware makespan %v not below pack %v", awareSpan, packSpan)
	}
	if awareRig.agent.Data().HitRate() <= packRig.agent.Data().HitRate() {
		t.Errorf("data-aware hit rate %.3f not above pack %.3f",
			awareRig.agent.Data().HitRate(), packRig.agent.Data().HitRate())
	}
}

// TestStagingDeterminism: identical seeds produce bit-identical staging
// traces under contention, for both placement policies (the data-aware
// tie-break is stable across runs).
func TestStagingDeterminism(t *testing.T) {
	for _, policy := range []spec.PlacementPolicy{spec.PlacePack, spec.PlaceDataAware} {
		capture := func() ([]profiler.TransferTrace, []sim.Time, []string) {
			tasks, r := runFanout(t, policy)
			finals := make([]sim.Time, len(tasks))
			backends := make([]string, len(tasks))
			for i, tk := range tasks {
				finals[i] = tk.Trace.Final
				backends[i] = tk.Trace.Backend
			}
			return r.prof.Transfers(), finals, backends
		}
		t1, f1, b1 := capture()
		t2, f2, b2 := capture()
		if !reflect.DeepEqual(t1, t2) {
			t.Fatalf("%v: transfer traces diverge across identical seeds", policy)
		}
		if !reflect.DeepEqual(f1, f2) {
			t.Fatalf("%v: task final times diverge across identical seeds", policy)
		}
		if !reflect.DeepEqual(b1, b2) {
			t.Fatalf("%v: task→backend assignment diverges across identical seeds", policy)
		}
		if len(t1) == 0 {
			t.Fatalf("%v: no transfers recorded", policy)
		}
	}
}

// TestPreferNodes pins the data-aware preference list: nodes holding a
// task's node-local inputs score their bytes, nodes a stage-in is in flight
// to score half, and the list runs by score descending, node ID ascending.
// All rows share one agent, so each also checks that the previous call's
// scratch left nothing behind.
func TestPreferNodes(t *testing.T) {
	r := newRig(t, spec.PilotDescription{Nodes: 4, Placement: spec.PlaceDataAware})
	sys := r.agent.Data()
	reg := sys.Registry()
	local := func(ds string, bytes int64) spec.StagingDirective {
		return spec.StagingDirective{Dataset: ds, SizeBytes: bytes, Source: spec.TierSharedFS, Dest: spec.TierNodeLocal}
	}
	pending := func(ds string, nodes ...int) {
		for _, n := range nodes {
			sys.StageToNode("setup", ds, data.GB, spec.TierSharedFS, n, nil, nil)
		}
	}
	cases := []struct {
		name  string
		setup func()
		in    []spec.StagingDirective
		want  []int
	}{
		{
			name:  "no replica anywhere",
			setup: func() {},
			in:    []spec.StagingDirective{local("cold", data.GB)},
		},
		{
			name:  "shared-tier input does not count",
			setup: func() { reg.RegisterNode("bb", 2) },
			in: []spec.StagingDirective{{Dataset: "bb", SizeBytes: data.GB,
				Source: spec.TierSharedFS, Dest: spec.TierBurstBuffer}},
		},
		{
			name: "equal scores break ties by node ID",
			setup: func() {
				reg.RegisterNode("tie", 3)
				reg.RegisterNode("tie", 0)
				reg.RegisterNode("tie", 2)
			},
			in:   []spec.StagingDirective{local("tie", data.GB)},
			want: []int{0, 2, 3},
		},
		{
			name: "several inputs add up per node",
			setup: func() {
				reg.RegisterNode("big", 1)
				reg.RegisterNode("small", 3)
				reg.RegisterNode("small", 1)
			},
			in:   []spec.StagingDirective{local("small", data.GB), local("big", 2*data.GB)},
			want: []int{1, 3},
		},
		{
			name: "held and in flight on one node",
			setup: func() {
				reg.RegisterNode("both", 2)
				pending("both", 2, 0)
			},
			in:   []spec.StagingDirective{local("both", 2*data.GB)},
			want: []int{2, 0},
		},
		{
			name: "in flight scores half",
			setup: func() {
				pending("warm", 3)
				reg.RegisterNode("side", 0)
			},
			// warm: 4 GB in flight to node 3 scores 2 GB, below side's
			// 3 GB held on node 0.
			in:   []spec.StagingDirective{local("side", 3*data.GB), local("warm", 4*data.GB)},
			want: []int{0, 3},
		},
		{
			name: "evicted replicas drop out",
			setup: func() {
				for n := 0; n < 4; n++ {
					reg.RegisterNode("gone", n)
				}
				reg.EvictNode(1)
				reg.EvictNode(3)
			},
			in:   []spec.StagingDirective{local("gone", data.GB)},
			want: []int{0, 2},
		},
	}
	for _, c := range cases {
		c.setup()
		got := r.agent.preferNodes(&spec.TaskDescription{InputData: c.in})
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: preferNodes = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPreferOnlyOnDataAwareConsumers: only a data-aware task with a
// node-local input reaches its backend with a Prefer hook. Producers,
// shared-tier stage-ins and every pack-policy task arrive unhinted, and
// every one's placement still reaches its dispatch record, as the
// placement's own node IDs, for the staged body to read.
func TestPreferOnlyOnDataAwareConsumers(t *testing.T) {
	consumer := func() *spec.TaskDescription {
		return &spec.TaskDescription{
			Kind: spec.Executable, CoresPerRank: 1, Ranks: 1, Duration: sim.Second,
			InputData: []spec.StagingDirective{{Dataset: "in", SizeBytes: data.GB,
				Source: spec.TierSharedFS, Dest: spec.TierNodeLocal}},
		}
	}
	producer := func() *spec.TaskDescription {
		return &spec.TaskDescription{
			Kind: spec.Executable, CoresPerRank: 1, Ranks: 1, Duration: sim.Second,
			OutputData: []spec.StagingDirective{{Dataset: "out", SizeBytes: data.GB, Dest: spec.TierSharedFS}},
		}
	}
	sharedIn := func() *spec.TaskDescription {
		td := consumer()
		td.InputData[0].Dest = spec.TierBurstBuffer
		return td
	}
	cases := []struct {
		name   string
		policy spec.PlacementPolicy
		td     *spec.TaskDescription
		hinted bool
	}{
		{"data-aware consumer", spec.PlaceDataAware, consumer(), true},
		{"data-aware producer", spec.PlaceDataAware, producer(), false},
		{"data-aware shared-tier stage-in", spec.PlaceDataAware, sharedIn(), false},
		{"pack consumer", spec.PlacePack, consumer(), false},
		{"pack producer", spec.PlacePack, producer(), false},
	}
	for _, c := range cases {
		r := newRig(t, spec.PilotDescription{Nodes: 1, Placement: c.policy})
		// A probe backend: ready at once, and its launch pipeline records
		// each placed request instead of running it.
		var got []*launch.Request
		l := launch.New(launch.Config{
			Name: "probe", Backend: spec.BackendFlux, Engine: r.eng, Part: r.agent.alloc,
			Launch: func(req *launch.Request) { got = append(got, req) },
		})
		g := &executorGroup{backend: spec.BackendFlux, launchers: []*launch.Launcher{l},
			alive: []bool{true}, inflight: []int{0}}
		r.agent.forward(g, r.task(c.td, "t"))
		if len(got) != 1 {
			t.Fatalf("%s: backend received %d requests, want 1", c.name, len(got))
		}
		req := got[0]
		if hinted := req.Prefer != nil; hinted != c.hinted {
			t.Errorf("%s: Prefer set = %v, want %v", c.name, hinted, c.hinted)
		}
		if d := &req.Events.(*stagedRec).dispatchRec; &d.req != req || len(d.req.Pl.NodeIDs) != 1 {
			t.Errorf("%s: backend placed a request outside the dispatch record, or on %v nodes",
				c.name, req.Pl.NodeIDs)
		}
	}
}

// TestDispatchRecordsFitTheirSizeClasses: every plain dispatch allocates a
// dispatchRec, which holds the 144-B launch request and its placement and
// must stay within the 176-B size class, and a staged one allocates a
// stagedRec instead, within 288 B. A shared-tier stage-in that has to wait
// allocates a stagingRec of its own, within 112 B. Growing any of them
// would move every such dispatch or stage-in to a larger class.
func TestDispatchRecordsFitTheirSizeClasses(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"launch.Request", unsafe.Sizeof(launch.Request{}), 144},
		{"dispatchRec", unsafe.Sizeof(dispatchRec{}), 176},
		{"stagedRec", unsafe.Sizeof(stagedRec{}), 288},
		{"stagingRec", unsafe.Sizeof(stagingRec{}), 112},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d B, want at most %d", c.name, c.size, c.max)
		}
	}
}

// TestDispatchAttemptAllocs pins what one dispatch attempt allocates from
// forward through placement, exec, the process body and completion on a
// ready launcher: its one record. That holds for a single-node task, for a
// multi-node one, whose node IDs the placer carves from a chunk it owns,
// and for staged attempts, whose staging state the record holds: a
// consumer whose input is already on its node, under either placement
// policy, and a producer writing one new dataset, whose transfer UID,
// flow and registry entry the data system carves from chunks.
func TestDispatchAttemptAllocs(t *testing.T) {
	plain := func(td spec.TaskDescription) func(int) *spec.TaskDescription {
		return func(int) *spec.TaskDescription { c := td; return &c }
	}
	consumer := func(int) *spec.TaskDescription {
		return &spec.TaskDescription{Kind: spec.Executable, CoresPerRank: 1, Ranks: 1,
			InputData: []spec.StagingDirective{{Dataset: "in", SizeBytes: data.GB,
				Source: spec.TierSharedFS, Dest: spec.TierNodeLocal}}}
	}
	producer := func(i int) *spec.TaskDescription {
		return &spec.TaskDescription{Kind: spec.Executable, CoresPerRank: 1, Ranks: 1,
			OutputData: []spec.StagingDirective{{Dataset: "out." + strconv.Itoa(i), SizeBytes: data.GB,
				Dest: spec.TierSharedFS}}}
	}
	cases := []struct {
		name   string
		policy spec.PlacementPolicy
		td     func(i int) *spec.TaskDescription
	}{
		{"single-node", spec.PlacePack, plain(spec.TaskDescription{Kind: spec.Executable, CoresPerRank: 1, Ranks: 1})},
		{"multi-node", spec.PlacePack, plain(spec.TaskDescription{Kind: spec.Executable, Nodes: 2, Ranks: 2, CoresPerRank: 1})},
		{"pack consumer", spec.PlacePack, consumer},
		{"data-aware consumer", spec.PlaceDataAware, consumer},
		{"producer", spec.PlacePack, producer},
	}
	for _, c := range cases {
		r := newRig(t, spec.PilotDescription{Nodes: 2, Placement: c.policy})
		r.eng.Run() // the agent's own bootstrap, before measuring
		for _, n := range r.agent.alloc.Nodes {
			r.agent.Data().Registry().RegisterNode("in", n.ID)
		}
		var l *launch.Launcher
		l = launch.New(launch.Config{
			Name: "probe", Backend: spec.BackendFlux, Engine: r.eng, Part: r.agent.alloc,
			Launch: func(req *launch.Request) { l.ExecAfter(0, req) },
		})
		g := &executorGroup{backend: spec.BackendFlux, launchers: []*launch.Launcher{l},
			alive: []bool{true}, inflight: []int{0}}
		const runs = 200
		tasks := make([]*Task, runs+1) // AllocsPerRun adds a warm-up run
		for i := range tasks {
			tasks[i] = r.task(c.td(i), c.name)
			tasks[i].State = states.TaskAgentExecuting
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			r.agent.forward(g, tasks[next])
			next++
			r.eng.Run()
		})
		if allocs != 1 {
			t.Errorf("%s dispatch attempt: %.2f allocs, want 1", c.name, allocs)
		}
		for _, tk := range tasks {
			if tk.State != states.TaskDone {
				t.Fatalf("%s: task ended %v, want DONE", c.name, tk.State)
			}
			if tk.Trace.DataMisses != 0 {
				t.Fatalf("%s: %d inputs missed, want every input on its node", c.name, tk.Trace.DataMisses)
			}
		}
	}
}

// stagingDigest fingerprints what the staging path writes into each task's
// trace, in task order: the stage-in/out spans, bytes moved, locality hits
// and misses, and every causal edge (kind, span and reference). It also
// counts the edges in total, and those of kind stage and transfer.
type stagingDigest struct {
	sum                    uint64
	edges, stage, transfer int
}

func digestStaging(tasks []*Task) stagingDigest {
	h := fnv.New64a()
	var b [8]byte
	num := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	var d stagingDigest
	for _, tk := range tasks {
		tr := tk.Trace
		h.Write([]byte(tr.UID))
		num(int64(tr.StageIn))
		num(int64(tr.StageOut))
		num(tr.BytesIn)
		num(tr.BytesOut)
		num(int64(tr.DataHits))
		num(int64(tr.DataMisses))
		num(int64(len(tr.Edges)))
		for _, e := range tr.Edges {
			num(int64(e.Kind))
			num(int64(e.From))
			num(int64(e.To))
			h.Write([]byte(e.Ref))
			h.Write([]byte{0})
			d.edges++
			switch e.Kind {
			case profiler.EdgeStage:
				d.stage++
			case profiler.EdgeTransfer:
				d.transfer++
			}
		}
	}
	d.sum = h.Sum64()
	return d
}

// runBurstStageIn submits 32 tasks at once, each reading two of four
// datasets from the parallel FS into the burst buffer: the first reader of
// each dataset starts the tier transfer, and the rest ride it.
func runBurstStageIn(t *testing.T) []*Task {
	t.Helper()
	r := newRig(t, spec.PilotDescription{Nodes: 2})
	bb := func(k int) spec.StagingDirective {
		return spec.StagingDirective{Dataset: "bb." + strconv.Itoa(k), SizeBytes: int64(k+1) * data.GB,
			Source: spec.TierSharedFS, Dest: spec.TierBurstBuffer}
	}
	tds := make([]*spec.TaskDescription, 32)
	for i := range tds {
		tds[i] = &spec.TaskDescription{
			Kind: spec.Executable, CoresPerRank: 1, Ranks: 1, Duration: sim.Second,
			InputData: []spec.StagingDirective{bb(i % 4), bb((i + 1) % 4)},
		}
	}
	tasks := r.submitAll(t, tds, "bb")
	for _, tk := range tasks {
		if tk.State != states.TaskDone {
			t.Fatalf("task %s: %v (%s)", tk.TD.UID, tk.State, tk.Reason)
		}
	}
	if n := len(r.prof.Transfers()); n != 4 {
		t.Fatalf("transfers = %d, want 4 (one per dataset; every other read coalesces)", n)
	}
	return tasks
}

// runMultiNodeStageIn submits twelve two-node tasks at once, each with two
// node-local inputs: one dispatch waits on up to four stage-ins, its own
// and ones it rides, and tasks sharing a node pair coalesce.
func runMultiNodeStageIn(t *testing.T) []*Task {
	t.Helper()
	r := newRig(t, spec.PilotDescription{Nodes: 4, Placement: spec.PlaceDataAware})
	local := func(k int) spec.StagingDirective {
		return spec.StagingDirective{Dataset: "mn." + strconv.Itoa(k), SizeBytes: int64(k+1) * data.GB,
			Source: spec.TierSharedFS, Dest: spec.TierNodeLocal}
	}
	tds := make([]*spec.TaskDescription, 12)
	for i := range tds {
		tds[i] = &spec.TaskDescription{
			Kind: spec.Executable, Nodes: 2, CoresPerRank: 8, Ranks: 2, Duration: sim.Second,
			InputData:  []spec.StagingDirective{local(i % 3), local((i + 1) % 3)},
			OutputData: []spec.StagingDirective{{Dataset: "mn.out." + strconv.Itoa(i), SizeBytes: data.GB, Dest: spec.TierSharedFS}},
		}
	}
	tasks := r.submitAll(t, tds, "mn")
	for _, tk := range tasks {
		if tk.State != states.TaskDone {
			t.Fatalf("task %s: %v (%s)", tk.TD.UID, tk.State, tk.Reason)
		}
	}
	return tasks
}

// TestStagingEdgesPinned pins the causal edges and staging fields of every
// task in five staged runs: neither the goldens nor the benchmark digest
// hash TaskTrace.Edges, so a wrong kind, span or reference from the
// staging path would pass every other check.
func TestStagingEdgesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*testing.T) []*Task
		want stagingDigest
	}{
		{"handoff pack", func(t *testing.T) []*Task { tasks, _ := runHandoff(t, spec.PlacePack); return tasks },
			stagingDigest{sum: 0x80cd7f675b71ff33, edges: 2465, stage: 449}},
		{"fanout pack", func(t *testing.T) []*Task { tasks, _ := runFanout(t, spec.PlacePack); return tasks },
			stagingDigest{sum: 0xbcab3b908db39570, edges: 789, stage: 244, transfer: 1}},
		{"fanout data-aware", func(t *testing.T) []*Task { tasks, _ := runFanout(t, spec.PlaceDataAware); return tasks },
			stagingDigest{sum: 0x650da1fa7a5e05fa, edges: 769, stage: 225}},
		{"burst-buffer burst", runBurstStageIn,
			stagingDigest{sum: 0xc5b9fd67ec450503, edges: 96, stage: 4, transfer: 60}},
		{"multi-node inputs", runMultiNodeStageIn,
			stagingDigest{sum: 0x98707a51cda98ee0, edges: 60, stage: 12, transfer: 36}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := digestStaging(c.run(t)); got != c.want {
				t.Errorf("staging digest %#v, want %#v", got, c.want)
			}
		})
	}
}
