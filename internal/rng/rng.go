// Package rng provides deterministic, named random substreams and the
// distributions used by the workload models.
//
// Every stochastic component of the simulation draws from its own
// substream, derived from the experiment seed and a stable name. Adding a
// new component therefore never perturbs the draws seen by existing
// components, which keeps calibrated experiments stable as the codebase
// grows.
package rng

import (
	"math"
	"math/rand"
)

// splitmix64 advances the SplitMix64 generator; it is used only to derive
// well-mixed substream seeds from (seed, name) pairs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashName folds a stream name into a 64-bit value (FNV-1a). A []byte
// name hashes exactly like the string with the same bytes.
func hashName[T string | []byte](name T) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return h
}

// Source derives named substreams from a root seed.
type Source struct {
	seed uint64
}

// NewSource returns a substream factory rooted at seed.
func NewSource(seed uint64) *Source { return &Source{seed: seed} }

// Stream returns the deterministic substream for name. Calling Stream
// twice with the same name yields independent generators with identical
// state, so callers should create each stream once and keep it. Like
// NewStream, it reuses a released stream when one is free.
func (s *Source) Stream(name string) *Stream {
	return NewStream(s.SeedFor(name))
}

// SeedFor derives the well-mixed 64-bit root seed for the named
// substream without constructing it. Experiment sweeps use this to give
// every (point, replication) pair an independent deterministic seed that
// depends only on the root seed and the stable name — never on
// scheduling order or worker count.
func (s *Source) SeedFor(name string) uint64 {
	return splitmix64(s.seed ^ splitmix64(hashName(name)))
}

// SeedForBytes is SeedFor for a name held in a byte slice, so hot
// callers can format names in a stack buffer instead of a string.
func (s *Source) SeedForBytes(name []byte) uint64 {
	return splitmix64(s.seed ^ splitmix64(hashName(name)))
}

// Stream is a deterministic random stream with distribution helpers.
// It draws exactly what rand.New(rand.NewSource(seed)) would: the
// register is math/rand's generator held inline (see source), and every
// helper runs math/rand's own Rand code over it.
type Stream struct {
	r        rand.Rand
	src      source
	released bool
}

// Float64 returns a uniform draw in [0,1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform draw in [0,n).
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// Uniform returns a uniform draw in [lo,hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Exp returns an exponential draw with the given mean.
func (s *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.r.ExpFloat64() * mean
}

// Normal returns a normal draw with mean mu and standard deviation sigma.
func (s *Stream) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.r.NormFloat64()
}

// LogNormal returns a lognormal draw where the underlying normal has mean
// mu and standard deviation sigma.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// LogNormalMean returns a lognormal draw with the given arithmetic mean
// and coefficient of variation. This parameterization is what workload
// cost models want: "around m, with cv relative spread".
func (s *Stream) LogNormalMean(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return s.LogNormal(mu, math.Sqrt(sigma2))
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool { return s.r.Float64() < p }

// Geometric returns a draw from the geometric distribution on {1,2,...}
// with the given mean: the trial count up to and including the first
// success at p = 1/mean, via the inverse CDF (one uniform per draw).
// Means at or below one degenerate to the constant 1.
func (s *Stream) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	n := int(math.Ceil(math.Log(u) / math.Log(1-1/mean)))
	if n < 1 {
		n = 1
	}
	return n
}

// Poisson returns a Poisson draw with the given mean (Knuth's method for
// small means, normal approximation above 30).
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := s.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Categorical draws an index with probability proportional to weights.
// It panics when weights is empty or sums to a non-positive value, since
// a transition table with no mass is a model bug.
func (s *Stream) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative categorical weight")
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("rng: categorical distribution with no mass")
	}
	u := s.r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
