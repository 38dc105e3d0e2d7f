package platform

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFrontierProfile(t *testing.T) {
	f := Frontier(1)
	if f.UsableCores != 56 || f.GPUs != 8 || f.Slots() != 56 {
		t.Fatalf("frontier SMT1: %+v slots=%d", f, f.Slots())
	}
	if Frontier(4).Slots() != 224 {
		t.Fatalf("frontier SMT4 slots = %d, want 224", Frontier(4).Slots())
	}
	assertPanics(t, "invalid SMT", func() { Frontier(3) })
}

func TestClusterTotals(t *testing.T) {
	c := NewCluster(Frontier(1), 4)
	if a := c.Allocate(4); c.Size() != 4 || a.TotalCPU() != 224 || c.Spec.GPUs*c.Size() != 32 {
		t.Fatalf("cluster: size=%d cpu=%d gpu=%d", c.Size(), a.TotalCPU(), c.Spec.GPUs*c.Size())
	}
}

// clusterSink keeps TestNewClusterAllocsFlat's clusters alive.
var clusterSink *Cluster

// TestNewClusterAllocsFlat pins NewCluster's allocations to the same count
// for 64 and 1,024 nodes: the nodes share one array.
func TestNewClusterAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(10, func() { clusterSink = NewCluster(Frontier(1), n) })
	}
	if small, large := allocs(64), allocs(1024); small != large {
		t.Errorf("NewCluster: %v allocs for 64 nodes, %v for 1,024", small, large)
	}
}

func TestAllocationPartition(t *testing.T) {
	c := NewCluster(Frontier(1), 10)
	a := c.Allocate(10)
	parts := a.Partition(3)
	sizes := []int{parts[0].Size(), parts[1].Size(), parts[2].Size()}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("partition sizes = %v, want [4 3 3]", sizes)
	}
	// Partitions must be disjoint.
	seen := map[int]bool{}
	for _, p := range parts {
		for _, n := range p.Nodes {
			if seen[n.ID] {
				t.Fatalf("node %d in two partitions", n.ID)
			}
			seen[n.ID] = true
		}
	}
}

func TestAllocationSlice(t *testing.T) {
	c := NewCluster(Frontier(1), 8)
	a := c.Allocate(8)
	s := a.Slice(2, 3)
	if s.Size() != 3 || s.Nodes[0].ID != 2 {
		t.Fatalf("slice: size=%d first=%d", s.Size(), s.Nodes[0].ID)
	}
	assertPanics(t, "bad slice", func() { a.Slice(6, 3) })
}

func TestClaimReleaseLedger(t *testing.T) {
	c := NewCluster(Frontier(1), 2)
	a := c.Allocate(2)
	pl := &Placement{NodeIDs: []int{0}, Cores: 30, GPUs: 4}
	if err := a.Claim(0, pl); err != nil {
		t.Fatal(err)
	}
	if c.Node(0).FreeCPU() != 26 || c.Node(0).FreeGPU() != 4 {
		t.Fatalf("ledger after claim: cpu=%d gpu=%d", c.Node(0).FreeCPU(), c.Node(0).FreeGPU())
	}
	// Over-claim must fail atomically.
	big := &Placement{NodeIDs: []int{0}, Cores: 27}
	if err := a.Claim(0, big); err == nil {
		t.Fatal("over-claim should fail")
	}
	if c.Node(0).FreeCPU() != 26 {
		t.Fatal("failed claim must not change the ledger")
	}
	a.Release(0, pl)
	if c.Node(0).FreeCPU() != 56 || c.Node(0).FreeGPU() != 8 {
		t.Fatal("release did not restore ledger")
	}
	assertPanics(t, "double release", func() { a.Release(0, pl) })
}

func TestMultiNodeClaimAtomicity(t *testing.T) {
	c := NewCluster(Frontier(1), 3)
	a := c.Allocate(3)
	// Fill node 1 completely.
	full := &Placement{NodeIDs: []int{1}, Cores: 56}
	if err := a.Claim(0, full); err != nil {
		t.Fatal(err)
	}
	// A 3-node claim includes the full node: must fail and leave nodes 0
	// and 2 untouched.
	tri := &Placement{NodeIDs: []int{0, 1, 2}, Cores: 10}
	if err := a.Claim(0, tri); err == nil {
		t.Fatal("claim across a full node should fail")
	}
	if c.Node(0).FreeCPU() != 56 || c.Node(2).FreeCPU() != 56 {
		t.Fatal("failed multi-node claim leaked slots")
	}
}

// TestLedgerConservationProperty claims and releases random placements and
// verifies slots are conserved and never oversubscribed.
func TestLedgerConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewCluster(Frontier(1), 4)
		a := c.Allocate(4)
		var live []*Placement
		for i := 0; i < 300; i++ {
			if r.Intn(2) == 0 && len(live) > 0 {
				k := r.Intn(len(live))
				a.Release(0, live[k])
				live = append(live[:k], live[k+1:]...)
				continue
			}
			pl := &Placement{
				NodeIDs: []int{r.Intn(4)},
				Cores:   r.Intn(20) + 1,
				GPUs:    r.Intn(3),
			}
			if a.Claim(0, pl) == nil {
				live = append(live, pl)
			}
		}
		// Invariants: free slots within [0, cap] on every node.
		for i := 0; i < 4; i++ {
			n := c.Node(i)
			if n.FreeCPU() < 0 || n.FreeCPU() > 56 || n.FreeGPU() < 0 || n.FreeGPU() > 8 {
				return false
			}
		}
		// Release everything: ledgers must return to full.
		for _, pl := range live {
			a.Release(0, pl)
		}
		for i := 0; i < 4; i++ {
			if c.Node(i).FreeCPU() != 56 || c.Node(i).FreeGPU() != 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestGuardsPanicNamingTheirInput: every size guard panics naming what
// was asked of it.
func TestGuardsPanicNamingTheirInput(t *testing.T) {
	c := NewCluster(Frontier(1), 4)
	a := c.Allocate(4)
	for _, g := range []struct {
		fn   func()
		want string
	}{
		{func() { NewCluster(Frontier(1), 0) }, "platform: cluster needs at least one node"},
		{func() { c.Allocate(5) }, "platform: allocation of 5 nodes exceeds cluster size 4"},
		{func() { a.Partition(0) }, "platform: partition count must be positive"},
		{func() { a.Partition(5) }, "platform: cannot split 4 nodes into 5 partitions"},
		{func() { SplitNodes(4, 0) }, "platform: domain count must be positive"},
		{func() { SplitNodes(4, 5) }, "platform: cannot split 4 nodes into 5 domains"},
	} {
		msg := func() (msg any) {
			defer func() { msg = recover() }()
			g.fn()
			return nil
		}()
		if msg != g.want {
			t.Errorf("panic %v, want %q", msg, g.want)
		}
	}
}

// TestFailRestoreAndSplit: failing a down node or restoring an up one
// changes nothing and says so, and SplitNodes spreads a remainder over the
// first domains.
func TestFailRestoreAndSplit(t *testing.T) {
	c := NewCluster(Frontier(1), 2)
	epoch := c.Epoch()
	if c.RestoreNode(0) || c.Epoch() != epoch {
		t.Fatal("restoring an up node changed the cluster")
	}
	if !c.FailNode(0) || c.FailNode(0) || c.Epoch() != epoch+1 || c.DownNodes() != 1 {
		t.Fatalf("fail twice: epoch %d, %d down; want one change", c.Epoch(), c.DownNodes())
	}
	if got := SplitNodes(10, 3); len(got) != 3 || got[0] != 4 || got[1] != 3 || got[2] != 3 {
		t.Fatalf("SplitNodes(10, 3) = %v, want [4 3 3]", got)
	}
}
