package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamsAreDeterministic(t *testing.T) {
	a := NewSource(42).Stream("think")
	b := NewSource(42).Stream("think")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same (seed,name) diverged at draw %d", i)
		}
	}
}

func TestStreamsAreIndependentByName(t *testing.T) {
	src := NewSource(42)
	a := src.Stream("think")
	b := src.Stream("service")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names matched %d/100 draws", same)
	}
}

func TestStreamsDifferBySeed(t *testing.T) {
	a := NewSource(1).Stream("x")
	b := NewSource(2).Stream("x")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 draws", same)
	}
}

func TestExpMean(t *testing.T) {
	s := NewSource(7).Stream("exp")
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(7.0)
	}
	mean := sum / n
	if math.Abs(mean-7.0) > 0.1 {
		t.Fatalf("Exp(7) sample mean = %v", mean)
	}
	if s.Exp(0) != 0 || s.Exp(-1) != 0 {
		t.Fatal("Exp with non-positive mean should be 0")
	}
}

func TestLogNormalMeanMatchesTarget(t *testing.T) {
	s := NewSource(7).Stream("ln")
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.LogNormalMean(100, 0.5)
	}
	mean := sum / n
	if math.Abs(mean-100)/100 > 0.02 {
		t.Fatalf("LogNormalMean(100,0.5) sample mean = %v", mean)
	}
	if v := s.LogNormalMean(100, 0); v != 100 {
		t.Fatalf("cv=0 should return the mean, got %v", v)
	}
	if v := s.LogNormalMean(0, 1); v != 0 {
		t.Fatalf("mean<=0 should return 0, got %v", v)
	}
}

func TestUniformRange(t *testing.T) {
	s := NewSource(3).Stream("u")
	for i := 0; i < 10000; i++ {
		v := s.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v", v)
		}
	}
}

func TestPoisson(t *testing.T) {
	s := NewSource(9).Stream("poisson")
	if s.Poisson(0) != 0 || s.Poisson(-2) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
	const n = 100000
	for _, mean := range []float64{3, 50} {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.03 {
			t.Fatalf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	s := NewSource(11).Stream("cat")
	counts := [3]int{}
	const n = 90000
	for i := 0; i < n; i++ {
		counts[s.Categorical([]float64{1, 2, 3})]++
	}
	for i, want := range []float64{1.0 / 6, 2.0 / 6, 3.0 / 6} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("category %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestCategoricalPanicsOnNoMass(t *testing.T) {
	s := NewSource(1).Stream("cat")
	for _, weights := range [][]float64{nil, {}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Categorical(%v) did not panic", weights)
				}
			}()
			s.Categorical(weights)
		}()
	}
}

func TestCategoricalPanicsOnNegative(t *testing.T) {
	s := NewSource(1).Stream("cat")
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	s.Categorical([]float64{1, -1})
}

// Property: Categorical always returns a valid index for positive
// weight vectors.
func TestPropertyCategoricalInRange(t *testing.T) {
	s := NewSource(13).Stream("prop")
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		total := 0.0
		for i, r := range raw {
			weights[i] = float64(r) + 0.001
			total += weights[i]
		}
		i := s.Categorical(weights)
		return i >= 0 && i < len(weights)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: substream derivation is stable — the first draw from a
// (seed,name) pair never depends on other streams having been created.
func TestPropertySubstreamStability(t *testing.T) {
	f := func(seed uint64, name string) bool {
		s1 := NewSource(seed)
		_ = s1.Stream("noise-a")
		_ = s1.Stream("noise-b")
		v1 := s1.Stream(name).Float64()
		v2 := NewSource(seed).Stream(name).Float64()
		return v1 == v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricMean(t *testing.T) {
	s := NewSource(1).Stream("geom")
	for _, mean := range []float64{1, 2.5, 10} {
		sum := 0.0
		const n = 200000
		for i := 0; i < n; i++ {
			d := s.Geometric(mean)
			if d < 1 {
				t.Fatalf("Geometric(%v) = %d < 1", mean, d)
			}
			sum += float64(d)
		}
		got := sum / n
		if got < 0.97*mean || got > 1.03*mean {
			t.Fatalf("Geometric(%v) empirical mean = %v", mean, got)
		}
	}
	// Degenerate means are the constant 1.
	for i := 0; i < 100; i++ {
		if d := s.Geometric(0.5); d != 1 {
			t.Fatalf("Geometric(0.5) = %d, want 1", d)
		}
	}
}
