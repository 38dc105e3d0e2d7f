package rng

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestStreamsAreDeterministic(t *testing.T) {
	a := New(1).Stream("x")
	b := New(1).Stream("x")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same (seed, name) must yield identical sequences")
		}
	}
}

func TestStreamsAreIndependent(t *testing.T) {
	a := New(1).Stream("a")
	b := New(1).Stream("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 'a' and 'b' coincide on %d/100 draws", same)
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1).Stream("x")
	b := New(2).Stream("x")
	if a.Float64() == b.Float64() && a.Float64() == b.Float64() {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestUniformRange(t *testing.T) {
	s := New(3).Stream("u")
	for i := 0; i < 1000; i++ {
		v := s.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v", v)
		}
	}
	if s.Uniform(5, 5) != 5 {
		t.Fatal("degenerate range should return lo")
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(4).Stream("ln")
	n := 20001
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = s.LogNormal(10, 0.5)
		if vs[i] <= 0 {
			t.Fatalf("lognormal must be positive, got %v", vs[i])
		}
	}
	sort.Float64s(vs)
	med := vs[n/2]
	if med < 9.5 || med > 10.5 {
		t.Fatalf("lognormal median = %v, want ~10", med)
	}
	if s.LogNormal(0, 1) != 0 {
		t.Fatal("non-positive median should return 0")
	}
}

func TestExpMean(t *testing.T) {
	s := New(6).Stream("exp")
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		sum += s.Exp(4)
	}
	mean := sum / float64(n)
	if mean < 3.8 || mean > 4.2 {
		t.Fatalf("Exp mean = %v, want ~4", mean)
	}
	if s.Exp(0) != 0 {
		t.Fatal("Exp(0) should be 0")
	}
}

func TestJitterBounds(t *testing.T) {
	s := New(7).Stream("j")
	for i := 0; i < 1000; i++ {
		v := s.Jitter(100, 0.25)
		if v < 75 || v > 125 {
			t.Fatalf("Jitter(100, .25) = %v", v)
		}
	}
	if s.Jitter(100, 0) != 100 {
		t.Fatal("zero jitter should be identity")
	}
}

// Property: derived streams are insensitive to name prefix collisions —
// "ab"+"c" and "a"+"bc" label distinct streams with distinct draws.
func TestStreamNameSeparationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := New(seed)
		a := src.Stream("abc")
		b := src.Stream("ab")
		// Identical first draws would indicate correlated seeding.
		return a.Float64() != b.Float64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
