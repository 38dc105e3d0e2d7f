package model

import (
	"testing"
	"testing/quick"
)

func TestDefaultsSanity(t *testing.T) {
	p := Default()
	if p.Srun.Ceiling != 112 {
		t.Fatalf("ceiling = %d, want Frontier's 112", p.Srun.Ceiling)
	}
	if p.Flux.BootstrapMedian < 15 || p.Flux.BootstrapMedian > 25 {
		t.Fatalf("flux bootstrap median = %v, want ~20 (Fig 7)", p.Flux.BootstrapMedian)
	}
	if p.Dragon.BootstrapMedian < 6 || p.Dragon.BootstrapMedian > 12 {
		t.Fatalf("dragon bootstrap median = %v, want ~9 (Fig 7)", p.Dragon.BootstrapMedian)
	}
	if p.RP.ExecutorSubmitOverhead <= 0 {
		t.Fatal("executor submit overhead must be positive")
	}
}

func TestMuMonotoneDecreasing(t *testing.T) {
	p := Default().Srun
	prev := p.Mu(1)
	for n := 2; n <= 2048; n *= 2 {
		mu := p.Mu(n)
		if mu >= prev {
			t.Fatalf("Mu(%d)=%v >= Mu(%d/2)=%v", n, mu, n, prev)
		}
		prev = mu
	}
}

func TestFluxRateGrowsSublinearly(t *testing.T) {
	p := Default().Flux
	if p.Rate(4) <= p.Rate(1) {
		t.Fatal("flux rate must grow with nodes")
	}
	// Sublinear: quadrupling nodes must not quadruple the rate.
	if p.Rate(4) >= 4*p.Rate(1) {
		t.Fatal("flux rate growth should be sublinear")
	}
	// The paper's anchor: R(1024)/R(1) ~ 300/28.
	ratio := p.Rate(1024) / p.Rate(1)
	if ratio < 8 || ratio > 14 {
		t.Fatalf("R(1024)/R(1) = %.1f, want ~10.7", ratio)
	}
}

func TestEtaProperties(t *testing.T) {
	p := Default().Flux
	f := func(kRaw uint8) bool {
		k := int(kRaw)%64 + 1
		eta := p.Eta(k)
		if eta <= 0 || eta > 1 {
			return false
		}
		// Aggregate k*eta(k) must still increase with k (more
		// instances never reduce total capability).
		return float64(k)*eta >= float64(k-1)*p.Eta(k-1)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDragonRatesDecline(t *testing.T) {
	p := Default().Dragon
	if p.FuncRate(1) <= p.ExecRate(1) {
		t.Fatal("function dispatch must be faster than exec dispatch")
	}
	for n := 2; n <= 512; n *= 2 {
		if p.ExecRate(n) >= p.ExecRate(n/2) {
			t.Fatalf("ExecRate must decline: n=%d", n)
		}
	}
	// Paper anchors: ~340-400 around 4-16 nodes, ~200 at 64.
	if r := p.ExecRate(64); r < 150 || r > 260 {
		t.Fatalf("ExecRate(64) = %.0f, want ~204", r)
	}
}

func TestStepCost(t *testing.T) {
	p := Default().Srun
	if p.StepCost(0) != p.StepCost(1) {
		t.Fatal("step cost floor")
	}
	if p.StepCost(8) <= p.StepCost(1) {
		t.Fatal("multi-node steps must cost more")
	}
	if p.StepCost(1<<20) != 4 {
		t.Fatalf("cap = %v", p.StepCost(1<<20))
	}
}

// TestRatesTreatNoNodesAsOne: every size-dependent rate reads a node count
// below one as one node, the smallest partition there is.
func TestRatesTreatNoNodesAsOne(t *testing.T) {
	p := Default()
	p.Data.BurstBufferPerNode = 1e9
	for name, rate := range map[string]func(int) float64{
		"srun Mu":         p.Srun.Mu,
		"flux Rate":       p.Flux.Rate,
		"dragon ExecRate": p.Dragon.ExecRate,
		"dragon FuncRate": p.Dragon.FuncRate,
		"shared FS":       p.Data.SharedFSBandwidth,
		"burst buffer":    p.Data.BurstBufferBandwidth,
	} {
		if rate(0) != rate(1) || rate(-3) != rate(1) {
			t.Errorf("%s: %v at 0 nodes, %v at -3, want %v as at 1", name, rate(0), rate(-3), rate(1))
		}
	}
}
