package rng

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// edgeSeeds exercise every branch of the seed reduction: zero (replaced
// by the default), negatives, multiples of the modulus (reduce to zero),
// the default itself, and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, int32max, 2 * int32max, -int32max, seedDefault,
	math.MinInt64, math.MaxInt64, 42,
}

// matchesMathRand reports the first of n draws at which the owned source
// seeded with seed diverges from math/rand's, or -1.
func matchesMathRand(seed int64, n int) int {
	var got source
	got.Seed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < n; i++ {
		if got.Uint64() != want.Uint64() {
			return i
		}
	}
	return -1
}

func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 3_000_000
	for _, seed := range edgeSeeds {
		if i := matchesMathRand(seed, draws); i >= 0 {
			t.Fatalf("seed %d: diverged from math/rand at draw %d", seed, i)
		}
	}
	f := func(seed int64) bool { return matchesMathRand(seed, draws) < 0 }
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestSourceReseedMatchesFresh(t *testing.T) {
	var r source
	r.Seed(7)
	for i := 0; i < 1000; i++ {
		r.Uint64()
	}
	r.Seed(11)
	want := rand.NewSource(11)
	for i := 0; i < 10000; i++ {
		if got, w := r.Int63(), want.Int63(); got != w {
			t.Fatalf("reseeded source diverged at draw %d: %d != %d", i, got, w)
		}
	}
}

// refStream is a Stream whose helpers run over math/rand's own source:
// the construction every Stream used before the source was owned.
func refStream(seed uint64) *Stream {
	s := &Stream{}
	s.r = *rand.New(rand.NewSource(int64(seed)))
	return s
}

func TestStreamHelpersMatchMathRand(t *testing.T) {
	helpers := []struct {
		name string
		draw func(*Stream) float64
	}{
		{"Float64", func(s *Stream) float64 { return s.Float64() }},
		{"Intn", func(s *Stream) float64 { return float64(s.Intn(1000)) }},
		{"Uniform", func(s *Stream) float64 { return s.Uniform(2, 5) }},
		{"Exp", func(s *Stream) float64 { return s.Exp(7) }},
		{"Normal", func(s *Stream) float64 { return s.Normal(1, 2) }},
		{"LogNormal", func(s *Stream) float64 { return s.LogNormal(0, 1) }},
		{"LogNormalMean", func(s *Stream) float64 { return s.LogNormalMean(100, 0.5) }},
		{"Bernoulli", func(s *Stream) float64 {
			if s.Bernoulli(0.3) {
				return 1
			}
			return 0
		}},
		{"Geometric", func(s *Stream) float64 { return float64(s.Geometric(2.5)) }},
		{"Poisson", func(s *Stream) float64 { return float64(s.Poisson(3)) }},
		{"PoissonNormal", func(s *Stream) float64 { return float64(s.Poisson(50)) }},
		{"Categorical", func(s *Stream) float64 { return float64(s.Categorical([]float64{1, 2, 3})) }},
	}
	for _, seed := range []uint64{0, 1, 42, NewSource(42).SeedFor("client-0-pick"), math.MaxUint64} {
		got, want := NewStream(seed), refStream(seed)
		// Interleave every helper so each one starts from a register
		// state the others left behind.
		for round := 0; round < 200; round++ {
			for _, h := range helpers {
				if g, w := h.draw(got), h.draw(want); g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("seed %d round %d: %s = %v, math/rand gives %v", seed, round, h.name, g, w)
				}
			}
		}
		got.Release()
	}
}

func TestReleasedStreamIsReseededLikeFresh(t *testing.T) {
	src := NewSource(3)
	a := src.Stream("first")
	for i := 0; i < 5000; i++ {
		a.Float64()
	}
	a.Release()
	b := src.Stream("second")
	if b != a {
		t.Fatal("Stream did not reuse the released stream")
	}
	want := refStream(src.SeedFor("second"))
	for i := 0; i < 10000; i++ {
		if g, w := b.Float64(), want.Float64(); g != w {
			t.Fatalf("recycled stream diverged at draw %d: %v != %v", i, g, w)
		}
	}
	b.Release()
}

func TestFreeListConcurrentCheckout(t *testing.T) {
	const workers, rounds, draws = 4, 25, 200
	src := NewSource(9)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for r := 0; r < rounds; r++ {
				seed := src.SeedFor(fmt.Sprintf("w%d-r%d", w, r))
				got, want := NewStream(seed), refStream(seed)
				for i := 0; i < draws; i++ {
					if g, x := got.Float64(), want.Float64(); g != x {
						t.Errorf("worker %d round %d: draw %d = %v, want %v", w, r, i, g, x)
						break
					}
				}
				got.Release()
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}

func TestStreamReleasedTwicePanics(t *testing.T) {
	s := NewStream(1)
	s.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
		NewStream(2) // take s back off the free list
	}()
	s.Release()
}

func TestRecycledStreamDoesNotAllocate(t *testing.T) {
	src := NewSource(5)
	src.Stream("warm").Release()
	allocs := testing.AllocsPerRun(100, func() {
		src.Stream("client-17-pick").Release()
	})
	if allocs != 0 {
		t.Fatalf("recycled Stream: %v allocs/op, want 0", allocs)
	}
}

func TestSeedForBytesMatchesSeedFor(t *testing.T) {
	f := func(seed uint64, name string) bool {
		src := NewSource(seed)
		return src.SeedForBytes([]byte(name)) == src.SeedFor(name)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzStreamSeed checks the first 2,000 draws of any int64 seed against
// math/rand.
func FuzzStreamSeed(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if i := matchesMathRand(seed, 2000); i >= 0 {
			t.Fatalf("seed %d: diverged from math/rand at draw %d", seed, i)
		}
	})
}

// drainFree empties the free list, so the next NewStream allocates.
func drainFree() {
	free.Lock()
	clear(free.list)
	free.list = free.list[:0]
	free.Unlock()
}

var sinkStream *Stream

// BenchmarkStreamNew measures building a stream with nothing to recycle:
// one allocation plus a full jump-ahead seed.
func BenchmarkStreamNew(b *testing.B) {
	drainFree()
	src := NewSource(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkStream = src.Stream("client-0-pick")
	}
}

// BenchmarkStreamReseed measures the recycled path a sweep's clients
// take after the first run: pop a released stream and reseed it.
func BenchmarkStreamReseed(b *testing.B) {
	src := NewSource(42)
	src.Stream("warm").Release()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Stream("client-0-pick").Release()
	}
}

// BenchmarkStreamDraw compares the per-draw cost of the owned source
// with math/rand's, through the same Rand code.
func BenchmarkStreamDraw(b *testing.B) {
	for _, bc := range []struct {
		name string
		s    *Stream
	}{
		{"owned", NewStream(42)},
		{"math-rand", refStream(42)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			sum := 0.0
			for i := 0; i < b.N; i++ {
				sum += bc.s.Float64()
			}
			if sum < 0 {
				b.Fatal(sum)
			}
		})
	}
}
