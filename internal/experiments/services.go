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
	Occupancy float64
}

// ServiceSweepResult is the full sweep.
type ServiceSweepResult struct {
	Cells []ServiceCell
}

// defaultServiceDesc is the calibrated endpoint every service experiment
// deploys: a GPU replica, 100 ms base latency, batches of up to 8.
func defaultServiceDesc() spec.ServiceDescription {
	return spec.ServiceDescription{
		Name:           "model",
		BaseLatency:    100 * sim.Millisecond,
		PerItemLatency: 15 * sim.Millisecond,
		MaxBatch:       8,
		BatchWindow:    20 * sim.Millisecond,
		GPUsPerReplica: 1,
		StartupDelay:   10 * sim.Second,
	}
}

// servicePilot is the pilot every service experiment deploys onto: one
// Dragon instance over the whole allocation.
func servicePilot(nodes int) spec.PilotDescription {
	return spec.PilotDescription{
		Nodes:      nodes,
		Partitions: []spec.PartitionConfig{{Backend: spec.BackendDragon, Instances: 1}},
	}
}

// RunServiceSweep executes every (rate, replicas) cell. Each cell is an
// independent session with a derived seed, so cells are reproducible in
// isolation and the whole sweep is deterministic.
func RunServiceSweep(cfg ServiceSweepConfig) ServiceSweepResult {
	var res ServiceSweepResult
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
	sess, pilot := newPilot("service sweep", core.Config{Seed: seed}, servicePilot(cfg.Nodes))
	sd := defaultServiceDesc()
	sd.Replicas = replicas
	sd.MaxReplicas = 0 // fixed-size cell: isolate queueing from scaling
	sd.MinReplicas = 0
	h, err := pilot.DeployService(sd)
	must("service sweep", err)
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
		Occupancy: st.Occupancy,
	}
}

// AutoscaleResult is the outcome of one autoscaled service run.
type AutoscaleResult struct {
	Served       uint64
	PeakReplicas int
	Events       []service.ScaleEvent
}

// RunAutoscaleDemo drives a two-phase load (quiet, then a burst at 4× the
// rate) against an autoscaled endpoint and returns the scale timeline —
// the qualitative behaviour examples and tests assert on.
func RunAutoscaleDemo(nodes int, rate float64, seed uint64) AutoscaleResult {
	sess, pilot := newPilot("autoscale", core.Config{Seed: seed}, servicePilot(nodes))
	sd := defaultServiceDesc()
	sd.Replicas = 1
	sd.MinReplicas = 1
	sd.MaxReplicas = nodes * 4
	sd.TargetQueuePerReplica = 4
	sd.ScaleCooldown = 5 * sim.Second
	h, err := pilot.DeployService(sd)
	must("autoscale", err)
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
		PeakReplicas: st.PeakReplicas,
		Events:       st.ScaleEvents,
	}
}
