package rng

import (
	"math/rand"
	"sync"
)

// source is math/rand's additive lagged-Fibonacci generator (Mitchell
// and Reeds), reimplemented bit for bit: the same 607-word register, the
// same tap/feed walk, the same Int63/Uint64, and Seed producing the same
// register for every int64 seed. Only the seeding arithmetic differs; see
// Seed. Owning it lets a Stream hold its register inline and be reseeded
// in place instead of allocating a new source per stream.
type source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the seed chain's modulus, a Mersenne prime

	seedMul     = 48271    // the seed chain's multiplier
	seedSkip    = 20       // chain steps discarded before register word 0
	seedDefault = 89482311 // replaces a seed that reduces to zero
)

// seedPow[i][j] is seedMul^(3i+j+seedSkip+1) mod int32max: the chain
// powers that make register word i (see Seed).
var seedPow [rngLen][3]uint64

func init() {
	p := uint64(1)
	for i := 0; i <= seedSkip; i++ {
		p = mulMod(p, seedMul)
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			seedPow[i][j] = p
			p = mulMod(p, seedMul)
		}
	}
}

// mulMod returns a*b mod 2^31-1 for a, b < 2^31-1. The product is below
// 2^62-2^33, so one Mersenne fold (2^31 ≡ 1) leaves it below
// 2·(2^31-1) and one conditional subtraction finishes it: no division.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// Seed sets the register exactly as math/rand's rngSource.Seed does.
// That code walks the Park–Miller chain x ← 48271·x mod (2^31−1) serially
// (Schrage's method, one division per step): 20 discarded steps, then
// three steps per register word. Since the chain is x₀·48271^k, word i is
//
//	(x₀·48271^(3i+21))<<40 ^ (x₀·48271^(3i+22))<<20 ^ (x₀·48271^(3i+23)) ^ rngCooked[i]
//
// and every term is one independent multiply-reduce against seedPow.
func (r *source) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedDefault
	}
	x := uint64(seed)
	for i := range r.vec {
		p := &seedPow[i]
		u := mulMod(x, p[0])<<40 ^ mulMod(x, p[1])<<20 ^ mulMod(x, p[2])
		r.vec[i] = int64(u) ^ rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer. No code in
// the module calls it by name: it completes math/rand.Source, the
// interface rand.New draws from.
func (r *source) Int63() int64 { return int64(r.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit integer.
func (r *source) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// free is the LIFO list of released streams. It holds at most as many
// streams as were ever checked out at once, so it needs no cap. It is
// not a sync.Pool because a pool is emptied by every GC cycle, and a
// sweep collects many times between one run's release and the next
// run's checkout.
var free struct {
	sync.Mutex
	list []*Stream
}

// NewStream builds a stream directly from a derived substream seed, as
// returned by Source.SeedFor. NewStream(src.SeedFor(name)) is
// byte-identical to src.Stream(name), which lets callers store the seed
// (a comparable cache key) and reconstruct the exact stream later. A
// released stream is reseeded and reused when one is available.
func NewStream(seed uint64) *Stream {
	free.Lock()
	var s *Stream
	if n := len(free.list); n > 0 {
		s = free.list[n-1]
		free.list[n-1] = nil
		free.list = free.list[:n-1]
	}
	free.Unlock()
	if s == nil {
		s = new(Stream)
	}
	s.released = false
	s.src.Seed(int64(seed))
	s.r = *rand.New(&s.src)
	return s
}

// Release hands the stream back for reuse by a later NewStream or
// Source.Stream. The caller must not draw from it afterwards: its next
// owner reseeds it. Releasing a stream twice
// panics.
func (s *Stream) Release() {
	if s.released {
		panic("rng: Stream released twice")
	}
	s.released = true
	free.Lock()
	free.list = append(free.list, s)
	free.Unlock()
}
