package telemetry

import (
	"math"
	"sort"
	"testing"

	"vwchar/internal/rng"
)

// relativeErrorBound is the worst-case relative error of a Hist
// quantile for values within the binned range [1µs, 1e6s]: half a bin,
// 10^(1/(2*binsPerDecade)) - 1 ≈ 0.9%.
var relativeErrorBound = math.Pow(10, 1.0/(2*binsPerDecade)) - 1

// oracleQuantile replicates the exact quantile convention the driver
// stats historically used: sort, then index rank floor(q*(n-1)) with
// no interpolation.
func oracleQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// TestHistQuantileVsOracle is the histogram's accuracy property test:
// across several latency distributions (lognormal service times, heavy
// Pareto tails, bimodal steady/saturated mixes), every quantile must
// land within the stated relative-error bound of the exact order
// statistic.
func TestHistQuantileVsOracle(t *testing.T) {
	src := rng.NewSource(7)
	cases := []struct {
		name string
		draw func(r *rng.Stream) float64
	}{
		{"lognormal", func(r *rng.Stream) float64 { return r.LogNormal(math.Log(0.01), 1.2) }},
		{"pareto-tail", func(r *rng.Stream) float64 {
			// Pareto with minimum 0.002 and shape 1.4, by inversion.
			u := r.Float64()
			for u == 0 {
				u = r.Float64()
			}
			return 0.002 / math.Pow(u, 1/1.4)
		}},
		{"bimodal", func(r *rng.Stream) float64 {
			if r.Bernoulli(0.9) {
				return r.Exp(0.008)
			}
			return 2 + r.Exp(3)
		}},
		{"exponential", func(r *rng.Stream) float64 { return r.Exp(0.05) }},
	}
	quantiles := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	for _, tc := range cases {
		r := src.Stream(tc.name)
		var h Hist
		xs := make([]float64, 0, 20000)
		for i := 0; i < 20000; i++ {
			v := tc.draw(r)
			h.Record(v)
			xs = append(xs, v)
		}
		for _, q := range quantiles {
			got := h.Quantile(q)
			want := oracleQuantile(xs, q)
			if want <= 0 {
				t.Fatalf("%s q%.3f: oracle %v not positive", tc.name, q, want)
			}
			if relErr := math.Abs(got/want - 1); relErr > relativeErrorBound {
				t.Errorf("%s q%.3f: hist %.6g vs exact %.6g (rel err %.4f > bound %.4f)",
					tc.name, q, got, want, relErr, relativeErrorBound)
			}
		}
		if got, want := h.Mean(), mean(xs); math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s: mean %v vs %v", tc.name, got, want)
		}
		if h.Min() != minOf(xs) || h.Max() != maxOf(xs) {
			t.Errorf("%s: extremes (%v,%v) vs (%v,%v)", tc.name, h.Min(), h.Max(), minOf(xs), maxOf(xs))
		}
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}

// TestHistOutOfRange pins the underflow/overflow bins: out-of-range
// observations are counted and reported via the exact extremes rather
// than clamped into the edge bins' midpoints.
func TestHistOutOfRange(t *testing.T) {
	var h Hist
	h.Record(1e-9) // below histMin
	h.Record(1e8)  // above the binned range
	h.Record(0.01)
	if h.Count() != 3 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.Quantile(0); got != 1e-9 {
		t.Fatalf("q0 = %v, want exact min", got)
	}
	if got := h.Quantile(1); got != 1e8 {
		t.Fatalf("q1 = %v, want exact max", got)
	}
}

// TestHistReset pins that Reset clears only state, not capacity: a
// reset histogram behaves like a fresh one.
func TestHistReset(t *testing.T) {
	var h Hist
	for i := 0; i < 100; i++ {
		h.Record(0.01 * float64(i+1))
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("reset left state: count=%d sum=%v", h.Count(), h.Sum())
	}
	h.Record(0.5)
	if got := h.Quantile(0.5); math.Abs(got/0.5-1) > relativeErrorBound {
		t.Fatalf("post-reset quantile %v", got)
	}
	if h.Min() != 0.5 || h.Max() != 0.5 {
		t.Fatalf("post-reset extremes %v %v", h.Min(), h.Max())
	}
}

// TestHistRecordZeroAlloc pins the record path's allocation contract
// under go test (the CI bench gate covers -benchmem regressions).
func TestHistRecordZeroAlloc(t *testing.T) {
	var h Hist
	v := 0.001
	allocs := testing.AllocsPerRun(10000, func() {
		h.Record(v)
		v *= 1.0001
	})
	if allocs != 0 {
		t.Fatalf("Hist.Record allocates %v allocs/op, want 0", allocs)
	}
}
