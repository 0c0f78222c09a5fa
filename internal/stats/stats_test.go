package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Std != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if !almostEq(s.Mean, 5, 1e-12) {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if !almostEq(s.Variance, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v", s.Variance)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if !almostEq(s.Median, 4.5, 1e-12) {
		t.Fatalf("Median = %v", s.Median)
	}
	if !almostEq(s.CoV, s.Std/s.Mean, 1e-12) {
		t.Fatalf("CoV = %v", s.CoV)
	}
}

func TestSkewnessSign(t *testing.T) {
	right := Summarize([]float64{1, 1, 1, 1, 2, 2, 3, 10})
	if right.Skewness <= 0 {
		t.Fatalf("right-skewed sample has skewness %v", right.Skewness)
	}
	left := Summarize([]float64{-10, -3, -2, -2, -1, -1, -1, -1})
	if left.Skewness >= 0 {
		t.Fatalf("left-skewed sample has skewness %v", left.Skewness)
	}
}

func TestQuantileEdges(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Quantile(xs, -1) != 1 || Quantile(xs, 0) != 1 {
		t.Fatal("q<=0 should be min")
	}
	if Quantile(xs, 2) != 3 || Quantile(xs, 1) != 3 {
		t.Fatal("q>=1 should be max")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestAutocorrelation(t *testing.T) {
	// A constant series has zero variance: correlation must be 0.
	if Autocorrelation([]float64{5, 5, 5, 5}, 1) != 0 {
		t.Fatal("constant series should give 0")
	}
	if got := Autocorrelation([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 0); !almostEq(got, 1, 1e-12) {
		t.Fatalf("lag-0 autocorrelation = %v", got)
	}
	// Alternating series should be strongly negative at lag 1.
	alt := []float64{1, -1, 1, -1, 1, -1, 1, -1}
	if got := Autocorrelation(alt, 1); got >= 0 {
		t.Fatalf("alternating lag-1 autocorrelation = %v", got)
	}
	if Autocorrelation([]float64{1, 2, 3}, 10) != 0 {
		t.Fatal("lag beyond length should be 0")
	}
}

func TestEstimateLagRecoversShift(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 400
	const shift = 7
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = math.Sin(float64(i)/9) + 0.05*r.NormFloat64()
	}
	for i := shift; i < n; i++ {
		y[i] = x[i-shift] + 0.05*r.NormFloat64()
	}
	lag, corr := EstimateLag(x, y, 30)
	if lag != shift {
		t.Fatalf("EstimateLag = %d, want %d (corr %v)", lag, shift, corr)
	}
	if corr < 0.9 {
		t.Fatalf("correlation at true lag = %v", corr)
	}
}

func TestCrossCorrelationDegenerate(t *testing.T) {
	if CrossCorrelation([]float64{1}, []float64{1}, 0) != 0 {
		t.Fatal("n<2 should give 0")
	}
	if CrossCorrelation([]float64{2, 2, 2}, []float64{1, 2, 3}, 0) != 0 {
		t.Fatal("zero-variance x should give 0")
	}
}

func TestDetectJumpsFindsStep(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		if i < 100 {
			xs[i] = 300
		} else {
			xs[i] = 500
		}
	}
	jumps := DetectJumps(xs, 10, 50)
	if len(jumps) != 1 {
		t.Fatalf("found %d jumps, want 1: %+v", len(jumps), jumps)
	}
	j := jumps[0]
	if j.Index < 95 || j.Index > 105 {
		t.Fatalf("jump index = %d, want near 100", j.Index)
	}
	if !almostEq(j.Magnitude(), 200, 25) {
		t.Fatalf("jump magnitude = %v, want ~200", j.Magnitude())
	}
}

func TestDetectJumpsIgnoresNoise(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = 400 + 5*r.NormFloat64()
	}
	if jumps := DetectJumps(xs, 10, 50); len(jumps) != 0 {
		t.Fatalf("noise produced jumps: %+v", jumps)
	}
}

func TestDetectJumpsDegenerate(t *testing.T) {
	if DetectJumps([]float64{1, 2}, 5, 1) != nil {
		t.Fatal("short series should give nil")
	}
	if DetectJumps(make([]float64, 100), 10, 0) != nil {
		t.Fatal("zero threshold should give nil")
	}
}

func TestFitLinear(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.A, 1, 1e-9) || !almostEq(fit.B, 2, 1e-9) {
		t.Fatalf("fit = %+v", fit)
	}
	if !almostEq(fit.R2, 1, 1e-9) {
		t.Fatalf("R2 = %v", fit.R2)
	}
	if !almostEq(fit.Predict(10), 21, 1e-9) {
		t.Fatalf("Predict(10) = %v", fit.Predict(10))
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point should error")
	}
	if _, err := FitLinear([]float64{2, 2}, []float64{1, 2}); err == nil {
		t.Fatal("degenerate x should error")
	}
}

// Property: variance is non-negative and mean lies within [min,max].
func TestPropertySummaryInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		clean := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e100 {
				clean = append(clean, v)
			}
		}
		s := Summarize(clean)
		if s.Variance < 0 {
			return false
		}
		if s.N > 0 && (s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: autocorrelation is bounded in [-1,1] for well-formed input.
func TestPropertyAutocorrelationBounded(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		for lag := 0; lag < n; lag++ {
			c := Autocorrelation(xs, lag)
			if c < -1-1e-9 || c > 1+1e-9 {
				t.Fatalf("autocorrelation out of bounds: %v at lag %d", c, lag)
			}
		}
	}
}

// TestMeanStdMatchesSummarize pins MeanStd to Summarize's Mean and Std
// bit for bit, for every sample size that takes a different branch and
// for long samples whose sums round, and pins that it copies nothing.
func TestMeanStdMatchesSummarize(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 10, 997} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.ExpFloat64() * 1e3
		}
		s := Summarize(xs)
		mean, std := MeanStd(xs)
		if math.Float64bits(mean) != math.Float64bits(s.Mean) || math.Float64bits(std) != math.Float64bits(s.Std) {
			t.Fatalf("n=%d: MeanStd = (%v, %v), Summarize = (%v, %v)", n, mean, std, s.Mean, s.Std)
		}
		if allocs := testing.AllocsPerRun(10, func() { MeanStd(xs) }); allocs != 0 {
			t.Fatalf("n=%d: MeanStd allocates %v times", n, allocs)
		}
	}
}
