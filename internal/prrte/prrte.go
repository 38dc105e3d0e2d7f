// Package prrte models the PMIx Reference RunTime Environment, the
// launcher RP integrated before Flux and Dragon (paper §5).
//
// PRRTE occupies a distinct design point: a persistent distributed virtual
// machine (DVM) of daemons is started once per partition, after which
// `prun` launches tasks into it with low per-task overhead — but PRRTE has
// *no internal scheduler*: placement and coordination are delegated to the
// caller. Here RP's shared Placer does the placement (exactly the division
// of labour the paper describes: "RP complements PRRTE's minimalist design
// by supplying scheduling, fault tolerance, and coordination logic").
//
// The model reproduces the published RP+PRRTE behaviour (Titov et al.,
// JSSPP'22, cited as [27]): DVM startup of ~10 s and a modest flat launch
// rate that neither benefits from partition size (no broker hierarchy)
// nor collapses at scale (no central Slurm controller on the task path) —
// the paper's related-work narrative gives ~14 t/s for the pre-Flux stack.
package prrte

import (
	"math"

	"rpgo/internal/launch"
	"rpgo/internal/platform"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/slurm"
	"rpgo/internal/spec"
)

// Params holds the DVM model constants.
type Params struct {
	// BootstrapMedian/Sigma: DVM daemon wire-up across the partition.
	BootstrapMedian     float64
	BootstrapSigma      float64
	BootstrapPerLogNode float64
	// Rate is the sustained prun launch rate (flat in partition size).
	Rate float64
	// RunSigma is the per-run variability.
	RunSigma float64
	// PrunLatencyMedian/Sigma: per-launch client latency.
	PrunLatencyMedian float64
	PrunLatencySigma  float64
}

// DefaultParams returns the calibrated PRRTE constants.
func DefaultParams() Params {
	return Params{
		BootstrapMedian:     10.5,
		BootstrapSigma:      0.10,
		BootstrapPerLogNode: 0.25,
		Rate:                14,
		RunSigma:            0.20,
		PrunLatencyMedian:   0.060,
		PrunLatencySigma:    0.40,
	}
}

// DVM is one PRRTE distributed virtual machine over a partition: the
// shared launcher lifecycle driven by the serial prun cost model.
type DVM struct {
	*launch.Launcher
	params Params
	rand   *rng.Stream
	// prun serializes launches into the DVM (the flat-rate bottleneck).
	prun     *sim.Server[*launch.Request]
	rateMult float64
}

// NewDVM creates and boots a DVM over the partition.
func NewDVM(name string, params Params, eng *sim.Engine, ctrl *slurm.Controller,
	part *platform.Allocation, src *rng.Source) *DVM {
	d := &DVM{params: params, rand: src.Stream("prrte." + name)}
	d.rateMult = d.rand.LogNormal(1, params.RunSigma)
	d.prun = sim.NewServer(eng, 1, d.serviceTime, d.launched)
	d.Launcher = launch.New(launch.Config{
		Name: name, Backend: spec.BackendPRRTE,
		Engine: eng, Ctrl: ctrl, Part: part,
		Bootstrap: d.bootstrapCost,
		// RP-side placement: PRRTE has no scheduler of its own.
		Launch: d.prun.Submit,
	})
	d.Boot()
	return d
}

// bootstrapCost draws the DVM daemons' wire-up; the DVM is srun-launched
// once and holds its slot for its lifetime.
func (d *DVM) bootstrapCost() sim.Duration {
	return sim.Seconds(d.rand.LogNormal(
		d.params.BootstrapMedian+d.params.BootstrapPerLogNode*math.Log2(float64(d.Nodes())+1),
		d.params.BootstrapSigma))
}

// Rate returns the effective prun launch rate.
func (d *DVM) Rate() float64 { return d.params.Rate * d.rateMult }

func (d *DVM) serviceTime(*launch.Request) sim.Duration {
	return sim.Seconds(d.rand.Exp(1 / d.Rate()))
}

// launched runs when the serial launcher issued the prun; the client hands
// the task to the DVM daemons after its own latency.
func (d *DVM) launched(r *launch.Request) {
	if d.Dropped(r) {
		return
	}
	d.ExecAfter(sim.Seconds(d.rand.LogNormal(d.params.PrunLatencyMedian, d.params.PrunLatencySigma)), r)
}
