// Package rng provides deterministic random-number streams for the
// simulation models.
//
// Every stochastic model in the repository (launch latencies, bootstrap
// overheads, scheduler jitter) draws from a named stream derived from a root
// seed, so that adding a new consumer of randomness does not perturb the
// draws seen by existing ones, and every experiment repetition is exactly
// reproducible.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is the root of a family of named streams.
type Source struct {
	seed uint64
}

// New returns a source rooted at seed.
func New(seed uint64) *Source {
	return &Source{seed: seed}
}

// Stream derives an independent deterministic stream for the given name.
// The same (seed, name) pair always yields the same sequence.
func (s *Source) Stream(name string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	mixed := splitmix64(s.seed ^ h.Sum64())
	return &Stream{r: rand.New(rand.NewSource(int64(mixed)))}
}

// splitmix64 scrambles a 64-bit value; it is the standard seeding finalizer
// and prevents correlated streams when names share prefixes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is a deterministic sequence of draws.
type Stream struct {
	r *rand.Rand
}

// Float64 returns a uniform draw in [0,1).
func (st *Stream) Float64() float64 { return st.r.Float64() }

// Uniform returns a uniform draw in [lo,hi).
func (st *Stream) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*st.r.Float64()
}

// LogNormal returns a draw from a log-normal distribution parameterized by
// its median and the sigma of the underlying normal. Latency distributions
// in launcher models are log-normal: most launches are fast, with a heavy
// right tail.
func (st *Stream) LogNormal(median, sigma float64) float64 {
	if median <= 0 {
		return 0
	}
	return median * math.Exp(sigma*st.r.NormFloat64())
}

// Exp returns an exponential draw with the given mean.
func (st *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return st.r.ExpFloat64() * mean
}

// Jitter returns v scaled by a uniform factor in [1-f, 1+f].
func (st *Stream) Jitter(v, f float64) float64 {
	if f <= 0 {
		return v
	}
	return v * st.Uniform(1-f, 1+f)
}
