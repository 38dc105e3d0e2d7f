package rp_test

import (
	"math"
	"testing"

	"rpgo/internal/spec"
	"rpgo/rp"
)

// facadeInput is one fuzzed session: a pilot description, fault parameters,
// a short task list, and an optional inference service. Node, instance and
// task counts are small integer types, so every input stays small.
type facadeInput struct {
	Nodes, SMT          int8
	Backend1, Backend2  uint8 // 0: no partition; Backend2 0: one group
	Instances1, Per1    int8
	Instances2, Per2    int8
	Share1, Share2      float64
	Placement           uint8
	Runtime             float64
	NodeMTBF, NodeDown  float64
	BackMTBF, BackDown  float64
	StragFrac, StragFac float64
	Horizon             float64
	MaxNodeFailures     int8
	Tasks               uint8
	Kind, Cores, GPUs   int8
	TaskNodes, Retries  int8
	Duration            float64
	CkptEvery           float64
	CkptMB              int8
	CkptTier            int8
	Service             uint8 // bits: deploy, deploy twice, call it, close mid-run
	BaseLatency, Sigma  float64
	Replicas, MaxReps   int8
	Calls               int8
	Phase               float64
	CallName            string
}

// add puts in into f's seed corpus.
func (in facadeInput) add(f *testing.F) {
	f.Add(in.Nodes, in.SMT, in.Backend1, in.Backend2, in.Instances1, in.Per1,
		in.Instances2, in.Per2, in.Share1, in.Share2, in.Placement, in.Runtime,
		in.NodeMTBF, in.NodeDown, in.BackMTBF, in.BackDown, in.StragFrac, in.StragFac,
		in.Horizon, in.MaxNodeFailures, in.Tasks, in.Kind, in.Cores, in.GPUs,
		in.TaskNodes, in.Retries, in.Duration, in.CkptEvery, in.CkptMB, in.CkptTier,
		in.Service, in.BaseLatency, in.Sigma, in.Replicas, in.MaxReps, in.Calls, in.Phase, in.CallName)
}

// maxFaultEvents bounds the expected size of a valid fault schedule, so
// that an input finishes in well under a second.
const maxFaultEvents = 5000

// faultEvents is the expected number of failure and restore events fp
// draws over its horizon on a pilot of the given size.
func faultEvents(fp rp.FaultParams, nodes int) float64 {
	h := fp.HorizonOrDefault()
	n := 0.0
	if fp.NodeMTBF > 0 {
		n += float64(nodes) * 2 * (h/(fp.NodeMTBF+fp.NodeDowntime) + 1)
	}
	if fp.BackendMTBF > 0 {
		down := fp.BackendDowntime
		if down == 0 {
			down = 60
		}
		n += 2 * (h/(fp.BackendMTBF+down) + 1)
	}
	return n
}

func (in facadeInput) run(t *testing.T) {
	pd := rp.PilotDescription{
		Nodes: int(in.Nodes), SMT: int(in.SMT),
		Placement: rp.PlacementPolicy(in.Placement % 4),
		Runtime:   rp.Seconds(in.Runtime),
	}
	if in.Backend1 != 0 {
		pd.Partitions = append(pd.Partitions, rp.PartitionConfig{
			Backend: spec.Backend(in.Backend1 % 8), Instances: int(in.Instances1),
			NodesPerInstance: int(in.Per1), NodeShare: in.Share1,
		})
		if in.Backend2 != 0 {
			pd.Partitions = append(pd.Partitions, rp.PartitionConfig{
				Backend: spec.Backend(in.Backend2 % 8), Instances: int(in.Instances2),
				NodesPerInstance: int(in.Per2), NodeShare: in.Share2,
			})
		}
	}
	fp := rp.FaultParams{
		NodeMTBF: in.NodeMTBF, NodeDowntime: in.NodeDown,
		BackendMTBF: in.BackMTBF, BackendDowntime: in.BackDown,
		StragglerFrac: in.StragFrac, StragglerFactor: in.StragFac,
		Horizon: in.Horizon, MaxNodeFailures: int(in.MaxNodeFailures),
	}
	if fp.Validate() == nil && faultEvents(fp, int(in.Nodes)) > maxFaultEvents {
		return
	}
	if in.CkptEvery > 0 && in.Duration/in.CkptEvery > 1000 {
		return // each checkpoint segment is a transfer
	}
	params := rp.DefaultParams()
	params.Fault = fp
	sess := rp.NewSession(rp.Config{Seed: 1, Params: &params})
	pilot, err := sess.SubmitPilot(pd)
	if err != nil {
		return
	}

	sd := rp.ServiceDescription{
		Name: "svc", Replicas: int(in.Replicas), MaxReplicas: int(in.MaxReps),
		BaseLatency: rp.Seconds(in.BaseLatency), LatencySigma: in.Sigma,
	}
	if in.Service&1 != 0 {
		if h, err := pilot.DeployService(sd); err == nil {
			if in.Service&2 != 0 {
				if _, err := pilot.DeployService(sd); err == nil {
					t.Fatal("a second DeployService of one name succeeded")
				}
			}
			if in.Service&8 != 0 {
				sess.Engine.After(rp.Seconds(in.Duration/2), h.Close)
			}
		}
	}

	tds := make([]*rp.TaskDescription, in.Tasks%17)
	for i := range tds {
		td := &rp.TaskDescription{
			Kind: spec.TaskKind(in.Kind % 3), CoresPerRank: int(in.Cores), Ranks: 1,
			GPUsPerRank: int(in.GPUs), Nodes: int(in.TaskNodes), MaxRetries: int(in.Retries),
			Duration:           rp.Seconds(in.Duration),
			CheckpointInterval: rp.Seconds(in.CkptEvery),
			CheckpointBytes:    int64(in.CkptMB) << 20,
			CheckpointDest:     rp.StageTier(in.CkptTier),
		}
		if in.Service&4 != 0 {
			td.Requests = []rp.ServiceCall{{Service: in.CallName, Count: int(in.Calls), Phase: in.Phase}}
		}
		tds[i] = td
	}
	tm := sess.TaskManager(pilot)
	finals := make(map[*rp.Task]int)
	tm.OnComplete = func(tk *rp.Task) { finals[tk]++ }
	tasks := tm.Submit(tds)
	// Wait reports tasks that can never finish (replicas holding every
	// slot, say) as an error; no task may finish twice either way.
	err = tm.Wait()
	for _, tk := range tasks {
		if finals[tk] > 1 || err == nil && (!tk.State.Final() || finals[tk] != 1) {
			t.Fatalf("task %s ended %v after %d completions (Wait: %v), want one terminal state",
				tk.TD.UID, tk.State, finals[tk], err)
		}
	}
}

// FuzzFacade puts fuzzed pilot descriptions, fault parameters, task lists
// and services through the rp facade. Every input either returns an error
// or ends with every task in exactly one terminal state, and none panics
// or finishes a task twice. The seed corpus holds known hostile inputs:
// invalid descriptions, fault parameters meant as "never" or "instant",
// and misused services.
func FuzzFacade(f *testing.F) {
	base := facadeInput{
		Nodes: 2, Backend1: uint8(rp.BackendFlux), Instances1: 1,
		Tasks: 4, Cores: 1, Duration: 30,
	}
	svc := base
	svc.Backend2, svc.Instances2 = uint8(rp.BackendDragon), 1
	svc.Service, svc.BaseLatency, svc.Replicas = 1|4, 0.1, 1
	svc.Calls, svc.Phase, svc.CallName = 2, 0.5, "svc"
	seeds := []func(*facadeInput){
		func(*facadeInput) {},
		// The fault paths: node churn, backend crashes, stragglers.
		func(in *facadeInput) { in.NodeMTBF, in.NodeDown, in.Horizon, in.Retries = 20, 5, 120, 3 },
		func(in *facadeInput) { in.BackMTBF, in.BackDown, in.Horizon, in.Retries = 10, 5, 120, 2 },
		func(in *facadeInput) { in.StragFrac, in.StragFac = 1, 2 },
		func(in *facadeInput) { in.NodeMTBF, in.MaxNodeFailures, in.Nodes = 5, 2, 2 },
		func(in *facadeInput) {
			in.CkptEvery, in.CkptMB, in.NodeMTBF, in.NodeDown, in.Horizon = 5, 8, 15, 5, 100
		},
		// FaultParams a user may mean as "never" or "instant".
		func(in *facadeInput) { in.NodeMTBF = math.Inf(1) },
		func(in *facadeInput) { in.NodeMTBF, in.NodeDown = 1e-7, 1e-7 },
		func(in *facadeInput) { in.BackMTBF, in.BackDown = 1e-7, 1e-7 },
		func(in *facadeInput) { in.StragFrac, in.StragFac = 2, math.NaN() },
		// Pilot descriptions: no nodes, bad SMT, layouts with fewer nodes than
		// instances, an unknown backend, bad shares, one backend in two groups.
		func(in *facadeInput) { in.Nodes = 0 },
		func(in *facadeInput) { in.SMT = 3 },
		func(in *facadeInput) { in.Nodes, in.Instances1 = 1, 2 },
		func(in *facadeInput) { in.Per1, in.Instances1 = 3, 1 },
		func(in *facadeInput) { in.Backend1 = 0 },
		func(in *facadeInput) { in.Backend1 = 7 },
		func(in *facadeInput) { in.Per1 = -1 },
		func(in *facadeInput) { in.Share1 = math.NaN() },
		func(in *facadeInput) { // an even split of 3 nodes leaves flux 1 for 2 instances
			in.Nodes, in.Instances1, in.Backend2, in.Instances2 = 3, 2, uint8(rp.BackendDragon), 1
		},
		func(in *facadeInput) { in.Backend2, in.Instances2 = uint8(rp.BackendFlux), 1 }, // flux twice
		func(in *facadeInput) { in.Runtime = 10 },
		// Tasks: negative and oversized requests, invalid checkpoint tiers.
		func(in *facadeInput) { in.Cores = -1 },
		func(in *facadeInput) { in.Cores, in.TaskNodes = 100, 0 },
		func(in *facadeInput) { in.TaskNodes, in.Kind = 2, int8(rp.Function) },
		func(in *facadeInput) { in.CkptEvery, in.CkptMB, in.CkptTier = 5, 1, 9 },
		func(in *facadeInput) { in.CkptEvery, in.CkptMB = 5, -1 },
	}
	svcSeeds := []func(*facadeInput){
		func(*facadeInput) {},
		func(in *facadeInput) { in.BaseLatency = 0 },              // invalid description
		func(in *facadeInput) { in.Service |= 2 },                 // duplicate DeployService
		func(in *facadeInput) { in.Phase = 1.5 },                  // phase outside [0,1]
		func(in *facadeInput) { in.CallName = "missing" },         // no such endpoint
		func(in *facadeInput) { in.Service |= 8 },                 // Close mid-campaign
		func(in *facadeInput) { in.Calls = -1 },                   // negative request count
		func(in *facadeInput) { in.Replicas, in.MaxReps = 2, 1 },  // max below initial
		func(in *facadeInput) { in.MaxReps = -1 },                 // negative replica bound
		func(in *facadeInput) { in.Sigma = -1 },                   // negative jitter
		func(in *facadeInput) { in.BackMTBF, in.BackDown = 8, 2 }, // replicas crash
	}
	for _, s := range seeds {
		in := base
		s(&in)
		in.add(f)
	}
	for _, s := range svcSeeds {
		in := svc
		s(&in)
		in.add(f)
	}
	f.Fuzz(func(t *testing.T, nodes, smt int8, backend1, backend2 uint8,
		instances1, per1, instances2, per2 int8, share1, share2 float64,
		placement uint8, runtime float64,
		nodeMTBF, nodeDown, backMTBF, backDown, stragFrac, stragFac, horizon float64,
		maxNodeFailures int8, tasks uint8, kind, cores, gpus, taskNodes, retries int8,
		duration, ckptEvery float64, ckptMB, ckptTier int8,
		service uint8, baseLatency, sigma float64, replicas, maxReps, calls int8, phase float64,
		callName string) {
		facadeInput{
			nodes, smt, backend1, backend2, instances1, per1, instances2, per2,
			share1, share2, placement, runtime,
			nodeMTBF, nodeDown, backMTBF, backDown, stragFrac, stragFac, horizon,
			maxNodeFailures, tasks, kind, cores, gpus, taskNodes, retries,
			duration, ckptEvery, ckptMB, ckptTier,
			service, baseLatency, sigma, replicas, maxReps, calls, phase, callName,
		}.run(t)
	})
}
