package experiments

// Golden determinism tests. These pin the exact profiler traces of two
// fixed-seed campaigns — the Fig 8 IMPECCABLE pipeline and a staging
// handoff — as FNV-1a fingerprints over every trace field. The engine,
// placer, and queue rewrites of the performance PR must keep these hashes
// byte-identical: any change to event ordering, placement decisions, or
// RNG draw sequence shows up here immediately.
//
// If one of these tests fails after an intentional model change (not a
// performance refactor), re-pin by running with -run TestGolden -v and
// copying the printed hashes.

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"rpgo/internal/campaign"
	"rpgo/internal/core"
	"rpgo/internal/metrics"
	"rpgo/internal/model"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// fingerprintTraces folds every field of every task trace, in submission
// order, into one 64-bit FNV-1a hash.
func fingerprintTraces(tasks []*profiler.TaskTrace) uint64 {
	h := fnv.New64a()
	for _, tr := range tasks {
		fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d|%t|%s|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
			tr.UID, tr.Submit, tr.Scheduled, tr.Launch, tr.Start, tr.End, tr.Final,
			tr.Failed, tr.Backend, tr.Workflow, tr.Cores, tr.GPUs, tr.Retries,
			tr.ServiceRequests, tr.ServiceFailed, tr.ServiceWait,
			tr.BytesIn, tr.BytesOut, tr.StageIn, tr.StageOut, tr.DataHits, tr.DataMisses)
	}
	return h.Sum64()
}

// fingerprintTransfers folds every transfer trace, in completion order.
func fingerprintTransfers(tts []profiler.TransferTrace) uint64 {
	h := fnv.New64a()
	for _, tt := range tts {
		fmt.Fprintf(h, "%s|%s|%d|%s|%s|%d|%d|%d\n",
			tt.Dataset, tt.Task, tt.Bytes, tt.Src, tt.Dst, tt.Node, tt.Start, tt.End)
	}
	return h.Sum64()
}

// Golden hashes captured from the pre-rewrite simulator (PR 2 state). The
// engine/placer/queue rewrite must reproduce them bit for bit.
const (
	goldenFig8Tasks       = uint64(0x8e446c867d8033a0)
	goldenHandoffTasks    = uint64(0x19dfaad4c89267d2)
	goldenHandoffTransfer = uint64(0xabb7481f7145aab5)
	goldenHybridTasks     = uint64(0x944348e46b879a60)
)

// Engine event counts of the hybrid and handoff golden runs: sim.events
// and sim.heap_pushes of their sessions. Event counts are not part of a
// trace, so a change can add an event per task and keep every
// fingerprint; these pins make it say so.
const (
	goldenHybridEvents      = uint64(12075)
	goldenHybridHeapPushes  = uint64(10259)
	goldenHandoffEvents     = uint64(1079)
	goldenHandoffHeapPushes = uint64(964)
)

// checkEventCounts fails t when the session's engine counts differ from
// the pins.
func checkEventCounts(t *testing.T, name string, sess *core.Session, events, pushes uint64) {
	t.Helper()
	gotEvents, gotPushes := sess.Engine.Steps(), sess.Engine.HeapPushes()
	t.Logf("%s sim.events=%d sim.heap_pushes=%d", name, gotEvents, gotPushes)
	if gotEvents != events || gotPushes != pushes {
		t.Errorf("%s event counts drifted: sim.events %d, sim.heap_pushes %d; want %d, %d",
			name, gotEvents, gotPushes, events, pushes)
	}
}

// Golden hashes for the srun and PRRTE launch paths and for a fault-enabled
// run that crashes, restarts and evicts on every backend. They pin the
// launcher lifecycle the four backends share.
const (
	goldenFig8SrunTasks  = uint64(0xe24c5088e2e03cbd)
	goldenPRRTECampaign  = uint64(0x5cee4546e1587080)
	goldenFaultFourTasks = uint64(0xccf688d24be8b568)
)

// TestGoldenFig8Campaign runs a fixed-seed, iteration-capped IMPECCABLE
// campaign on Flux and checks the trace fingerprint.
func TestGoldenFig8Campaign(t *testing.T) {
	res := RunImpeccable(ImpeccableConfig{
		Nodes:    128,
		Backend:  spec.BackendFlux,
		Seed:     424242,
		MaxIters: 6,
	})
	if res.Tasks == 0 {
		t.Fatal("campaign ran no tasks")
	}
	got := fingerprintTraces(res.Traces)
	t.Logf("fig8 tasks=%d failed=%d fingerprint=%#x", res.Tasks, res.Failed, got)
	if goldenFig8Tasks != 0 && got != goldenFig8Tasks {
		t.Fatalf("fig8 trace fingerprint drifted: got %#x, want %#x", got, goldenFig8Tasks)
	}
}

// TestGoldenHybridThroughput runs one dense flux+dragon throughput cell —
// thousands of tasks through both backend hot paths, the ring placer, and
// the agent pipeline — and checks the full trace fingerprint.
func TestGoldenHybridThroughput(t *testing.T) {
	cfg := HybridCell(8, 2, 0, 99, 1)
	sess := core.NewSession(core.Config{Seed: cfg.Seed})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes: cfg.Nodes, SMT: 1, Partitions: cfg.Partitions,
	})
	if err != nil {
		t.Fatal(err)
	}
	tm := sess.TaskManager(pilot)
	tm.Submit(cfg.buildWorkload())
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	tasks := sess.Profiler.Tasks()
	got := fingerprintTraces(tasks)
	t.Logf("hybrid tasks=%d fingerprint=%#x", len(tasks), got)
	if goldenHybridTasks != 0 && got != goldenHybridTasks {
		t.Fatalf("hybrid trace fingerprint drifted: got %#x, want %#x", got, goldenHybridTasks)
	}
	checkEventCounts(t, "hybrid", sess, goldenHybridEvents, goldenHybridHeapPushes)
}

// TestGoldenStagingHandoff runs the fixed-seed producer→consumer handoff
// under data-aware placement and checks task and transfer fingerprints.
func TestGoldenStagingHandoff(t *testing.T) {
	res, sess := runHandoffSession(HandoffConfig{
		Nodes: 4, Stages: 2, Width: 64, Bytes: 1 << 28,
		Policy: spec.PlaceDataAware, TaskSeconds: 1, Seed: 77,
	})
	if res.Failed != 0 {
		t.Fatalf("handoff failed %d tasks", res.Failed)
	}
	tasks := sess.Profiler.Tasks()
	gotTasks := fingerprintTraces(tasks)
	gotTransfers := fingerprintTransfers(sess.Profiler.Transfers())
	t.Logf("handoff tasks=%#x transfers=%#x (n=%d, moved=%d)",
		gotTasks, gotTransfers, len(tasks), res.BytesMoved)
	if goldenHandoffTasks != 0 && gotTasks != goldenHandoffTasks {
		t.Fatalf("handoff trace fingerprint drifted: got %#x, want %#x", gotTasks, goldenHandoffTasks)
	}
	if goldenHandoffTransfer != 0 && gotTransfers != goldenHandoffTransfer {
		t.Fatalf("handoff transfer fingerprint drifted: got %#x, want %#x", gotTransfers, goldenHandoffTransfer)
	}
	checkEventCounts(t, "handoff", sess, goldenHandoffEvents, goldenHandoffHeapPushes)
}

// TestGoldenFig8CampaignSrun is TestGoldenFig8Campaign on RP's default srun
// executor: every task holds a slot of the Slurm srun ceiling.
func TestGoldenFig8CampaignSrun(t *testing.T) {
	res := RunImpeccable(ImpeccableConfig{
		Nodes:    128,
		Backend:  spec.BackendSrun,
		Seed:     424242,
		MaxIters: 6,
	})
	if res.Tasks == 0 {
		t.Fatal("campaign ran no tasks")
	}
	got := fingerprintTraces(res.Traces)
	t.Logf("fig8 srun tasks=%d failed=%d fingerprint=%#x", res.Tasks, res.Failed, got)
	if goldenFig8SrunTasks != 0 && got != goldenFig8SrunTasks {
		t.Fatalf("fig8 srun trace fingerprint drifted: got %#x, want %#x", got, goldenFig8SrunTasks)
	}
}

// runCampaignTraced runs a MaxIters-capped IMPECCABLE campaign on the given
// partition layout and returns its session.
func runCampaignTraced(t *testing.T, nodes int, parts []spec.PartitionConfig, seed uint64, params *model.Params) *core.Session {
	t.Helper()
	sess := core.NewSession(core.Config{Seed: seed, Params: params})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{Nodes: nodes, SMT: 1, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	tm := sess.TaskManager(pilot)
	camp := campaign.New(campaign.Config{Nodes: nodes, MaxIters: 2, MaxRetries: 8}, sess, tm)
	if err := camp.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestGoldenPRRTECampaign pins a small campaign on one PRRTE DVM: the
// serial prun launcher and its per-launch client latency.
func TestGoldenPRRTECampaign(t *testing.T) {
	sess := runCampaignTraced(t, 32, []spec.PartitionConfig{{Backend: spec.BackendPRRTE, Instances: 1}}, 5150, nil)
	tasks := sess.Profiler.Tasks()
	if len(tasks) == 0 {
		t.Fatal("campaign ran no tasks")
	}
	got := fingerprintTraces(tasks)
	t.Logf("prrte tasks=%d fingerprint=%#x", len(tasks), got)
	if goldenPRRTECampaign != 0 && got != goldenPRRTECampaign {
		t.Fatalf("prrte trace fingerprint drifted: got %#x, want %#x", got, goldenPRRTECampaign)
	}
}

// TestGoldenFaultFourBackends pins a run with node failures and backend
// crashes over flux, dragon, prrte and srun partitions. The checks below
// make sure the schedule really evicts work from each backend, and crashes
// each crashable one under its tasks and restarts it, so the pin covers
// those paths.
func TestGoldenFaultFourBackends(t *testing.T) {
	params := model.Default()
	params.Fault = model.FaultParams{
		NodeMTBF:        200,
		NodeDowntime:    60,
		BackendMTBF:     40,
		BackendDowntime: 30,
		Horizon:         900,
	}
	sess := core.NewSession(core.Config{Seed: 8080, Params: &params})
	backends := []spec.Backend{spec.BackendFlux, spec.BackendDragon, spec.BackendPRRTE, spec.BackendSrun}
	var parts []spec.PartitionConfig
	for _, b := range backends {
		parts = append(parts, spec.PartitionConfig{Backend: b, Instances: 1, NodesPerInstance: 2})
	}
	pilot, err := sess.SubmitPilot(spec.PilotDescription{Nodes: 8, SMT: 1, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	var tds []*spec.TaskDescription
	for i := 0; i < 240; i++ {
		tds = append(tds, &spec.TaskDescription{
			UID:          fmt.Sprintf("f.%04d", i),
			Backend:      backends[i%len(backends)],
			CoresPerRank: 14, Ranks: 2,
			Duration:   sim.Seconds(20),
			MaxRetries: 20,
		})
	}
	tm := sess.TaskManager(pilot)
	tm.Submit(tds)
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	st := pilot.Faults.Stats()
	if st.NodeFailures == 0 || st.Victims == 0 || st.BackendCrashes == 0 || st.BackendRestarts == 0 {
		t.Fatalf("fault schedule too quiet to pin anything: %+v makespan=%v", st, metrics.Makespan(sess.Profiler.Tasks()))
	}
	// A restarted instance is live again; one that never came back is not.
	for _, l := range pilot.Agent.Launchers() {
		if !l.Live() {
			t.Errorf("%s is down after the run: a crash was never followed by a restart", l.Name())
		}
	}
	tasks := sess.Profiler.Tasks()
	evicted, crashed := map[string]bool{}, map[string]bool{}
	for _, tr := range tasks {
		backend := strings.SplitN(tr.Backend, ".", 2)[0]
		for _, e := range tr.Edges {
			switch {
			case e.Kind != profiler.EdgeFailure:
			case strings.HasPrefix(e.Ref, "node "):
				evicted[backend] = true
			case e.Ref == "backend instance crashed":
				crashed[backend] = true
			}
		}
	}
	for _, b := range backends {
		if !evicted[b.String()] {
			t.Errorf("no node failure evicted a %s task (evicted: %v)", b, evicted)
		}
		if crashable := b != spec.BackendSrun; crashed[b.String()] != crashable {
			t.Errorf("%s: a crash failed its tasks: %t, want %t (crashed: %v)", b, crashed[b.String()], crashable, crashed)
		}
	}
	got := fingerprintTraces(tasks)
	t.Logf("fault tasks=%d stats=%+v makespan=%v fingerprint=%#x", len(tasks), st, metrics.Makespan(tasks), got)
	if goldenFaultFourTasks != 0 && got != goldenFaultFourTasks {
		t.Fatalf("fault trace fingerprint drifted: got %#x, want %#x", got, goldenFaultFourTasks)
	}
}
