package experiments

// Inference-service characterization: a request-rate × replica-count
// sweep over a deployed endpoint, the serving analogue of the paper's
// throughput matrix. Each cell drives an open-loop Poisson client against
// a fixed-replica endpoint and reports request-latency percentiles, batch
// occupancy and replica utilization; an optional autoscaled cell records
// the scale-event timeline instead.

import (
	"rpgo/internal/core"
	"rpgo/internal/metrics"
	"rpgo/internal/service"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// ServiceSweepConfig parameterizes the request-rate vs. replica sweep.
type ServiceSweepConfig struct {
	// Nodes is the pilot size hosting the service partition.
	Nodes int
	// Rates are open-loop request arrival rates (req/s).
	Rates []float64
	// Replicas are the fixed replica counts to sweep.
	Replicas []int
	// Duration is the client's arrival window.
	Duration sim.Duration
	// Service overrides the endpoint description; zero-value fields use
	// a calibrated default (GPU replica, 100 ms base latency, batch 8).
	Service spec.ServiceDescription
	// Seed drives arrivals and latency jitter.
	Seed uint64
}

// ServiceCell is the outcome of one (rate, replicas) cell.
type ServiceCell struct {
	Rate      float64
	Replicas  int
	Served    uint64
	Failed    uint64
	Latency   metrics.LatencySummary
	QueueWait metrics.LatencySummary
	Occupancy float64
	Util      float64
	PeakQueue int
}

// ServiceSweepResult is the full sweep.
type ServiceSweepResult struct {
	Config ServiceSweepConfig
	Cells  []ServiceCell
}

// defaultServiceDesc fills unset description fields.
func defaultServiceDesc(sd spec.ServiceDescription) spec.ServiceDescription {
	if sd.Name == "" {
		sd.Name = "model"
	}
	if sd.BaseLatency == 0 {
		sd.BaseLatency = 100 * sim.Millisecond
	}
	if sd.PerItemLatency == 0 {
		sd.PerItemLatency = 15 * sim.Millisecond
	}
	if sd.MaxBatch == 0 {
		sd.MaxBatch = 8
	}
	if sd.BatchWindow == 0 {
		sd.BatchWindow = 20 * sim.Millisecond
	}
	if sd.GPUsPerReplica == 0 {
		sd.GPUsPerReplica = 1
	}
	if sd.StartupDelay == 0 {
		sd.StartupDelay = 10 * sim.Second
	}
	return sd
}

// RunServiceSweep executes every (rate, replicas) cell. Each cell is an
// independent session with a derived seed, so cells are reproducible in
// isolation and the whole sweep is deterministic.
func RunServiceSweep(cfg ServiceSweepConfig) ServiceSweepResult {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * sim.Minute
	}
	res := ServiceSweepResult{Config: cfg}
	// Cell list first, then the worker pool: seeds derive from the cell's
	// grid position, so any worker count reproduces the serial sweep.
	type coord struct {
		rate     float64
		replicas int
		seed     uint64
	}
	var coords []coord
	cell := 0
	for _, reps := range cfg.Replicas {
		for _, rate := range cfg.Rates {
			cell++
			coords = append(coords, coord{rate: rate, replicas: reps, seed: cfg.Seed + uint64(cell)})
		}
	}
	res.Cells = make([]ServiceCell, len(coords))
	RunCells(len(coords), func(i int) {
		c := coords[i]
		res.Cells[i] = runServiceCell(cfg, c.rate, c.replicas, c.seed)
	})
	return res
}

func runServiceCell(cfg ServiceSweepConfig, rate float64, replicas int, seed uint64) ServiceCell {
	sess := core.NewSession(core.Config{Seed: seed})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes: cfg.Nodes,
		Partitions: []spec.PartitionConfig{
			{Backend: spec.BackendDragon, Instances: 1},
		},
	})
	if err != nil {
		panic(err)
	}
	sd := defaultServiceDesc(cfg.Service)
	sd.Replicas = replicas
	sd.MaxReplicas = 0 // fixed-size cell: isolate queueing from scaling
	sd.MinReplicas = 0
	h, err := pilot.DeployService(sd)
	if err != nil {
		panic(err)
	}
	// Open-loop Poisson client: arrivals are independent of service
	// completions, so queues grow without bound past saturation — the
	// regime the latency percentiles are meant to expose.
	arrivals := sess.Rand("client.arrivals")
	var gen func()
	start := sess.Engine.Now()
	gen = func() {
		if sess.Engine.Now().Sub(start) >= cfg.Duration {
			return
		}
		h.Call(func(sim.Time, bool) {})
		sess.Engine.After(sim.Seconds(arrivals.Exp(1/rate)), gen)
	}
	h.Ready(gen)
	sess.Run()

	st := h.Stats()
	return ServiceCell{
		Rate:      rate,
		Replicas:  replicas,
		Served:    st.Served,
		Failed:    st.Failed,
		Latency:   st.Latency,
		QueueWait: st.QueueWait,
		Occupancy: st.Occupancy,
		Util:      st.Utilization,
		PeakQueue: st.PeakQueue,
	}
}

// AutoscaleResult is the outcome of one autoscaled service run.
type AutoscaleResult struct {
	Served       uint64
	Latency      metrics.LatencySummary
	PeakReplicas int
	Events       []service.ScaleEvent
	ReplicaChart string
}

// RunAutoscaleDemo drives a two-phase load (quiet, then a burst at 4× the
// rate) against an autoscaled endpoint and returns the scale timeline —
// the qualitative behaviour examples and tests assert on.
func RunAutoscaleDemo(nodes int, rate float64, seed uint64) AutoscaleResult {
	sess := core.NewSession(core.Config{Seed: seed})
	pilot, err := sess.SubmitPilot(spec.PilotDescription{
		Nodes: nodes,
		Partitions: []spec.PartitionConfig{
			{Backend: spec.BackendDragon, Instances: 1},
		},
	})
	if err != nil {
		panic(err)
	}
	sd := defaultServiceDesc(spec.ServiceDescription{Name: "model"})
	sd.Replicas = 1
	sd.MinReplicas = 1
	sd.MaxReplicas = nodes * 4
	sd.TargetQueuePerReplica = 4
	sd.ScaleCooldown = 5 * sim.Second
	h, err := pilot.DeployService(sd)
	if err != nil {
		panic(err)
	}
	arrivals := sess.Rand("client.arrivals")
	start := sess.Engine.Now()
	quiet, burst := sim.Minute, 2*sim.Minute
	var gen func()
	gen = func() {
		el := sess.Engine.Now().Sub(start)
		if el >= burst+quiet {
			return
		}
		r := rate
		if el >= quiet {
			r = 4 * rate
		}
		h.Call(func(sim.Time, bool) {})
		sess.Engine.After(sim.Seconds(arrivals.Exp(1/r)), gen)
	}
	h.Ready(gen)
	sess.Run()
	st := h.Stats()
	return AutoscaleResult{
		Served:       st.Served,
		Latency:      st.Latency,
		PeakReplicas: st.PeakReplicas,
		Events:       st.ScaleEvents,
		ReplicaChart: metrics.ASCIIPlot(h.Endpoint().ReplicaSeries(72), 72, 8, "replicas over time"),
	}
}
