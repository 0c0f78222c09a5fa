// Package stats implements the statistical toolkit used to characterize
// workload traces: descriptive statistics, histograms, correlation and
// lag estimation, change-point (jump) detection, smoothing, and maximum
// likelihood distribution fits with goodness-of-fit distances.
//
// The paper observes that "the workload dynamics show some patterns that
// can be quantified by formal models"; this package supplies the formal
// models.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1)
	Std      float64
	Min      float64
	Max      float64
	Median   float64
	P95      float64
	P99      float64
	// CoV is the coefficient of variation Std/Mean (0 when Mean==0).
	CoV float64
	// Skewness is the adjusted Fisher-Pearson sample skewness.
	Skewness float64
}

// Summarize computes descriptive statistics. An empty sample yields a
// zero Summary.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	var ss float64
	s.Mean, ss = meanSS(xs)
	s.Min = xs[0]
	s.Max = xs[0]
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	if s.N > 1 {
		s.Variance = ss / float64(s.N-1)
		s.Std = math.Sqrt(s.Variance)
		if s.Std > 0 && s.N > 2 {
			cube := 0.0
			for _, x := range xs {
				d := x - s.Mean
				cube += d * d * d
			}
			n := float64(s.N)
			m3 := cube / n
			m2 := ss / n
			g1 := m3 / math.Pow(m2, 1.5)
			s.Skewness = math.Sqrt(n*(n-1)) / (n - 2) * g1
		}
	}
	if s.Mean != 0 {
		s.CoV = s.Std / s.Mean
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantileSorted(sorted, 0.5)
	s.P95 = quantileSorted(sorted, 0.95)
	s.P99 = quantileSorted(sorted, 0.99)
	return s
}

// MeanStd returns the arithmetic mean of xs and its unbiased (n-1)
// standard deviation (0 for fewer than two samples, and both 0 for
// none). It reads the sample once more and copies nothing, and it
// shares Summarize's arithmetic, so its results equal Summarize's Mean
// and Std bit for bit.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	mean, ss := meanSS(xs)
	if len(xs) > 1 {
		std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return mean, std
}

// meanSS returns the mean of a non-empty xs and the sum of squared
// deviations from it, summed in order: the two sums Summarize's mean,
// variance and skewness and MeanStd's results are built on.
func meanSS(xs []float64) (mean, ss float64) {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, ss
}

// Quantile returns the q-quantile of xs with linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Autocorrelation returns the sample autocorrelation at the given lag,
// in [-1,1]; 0 for degenerate inputs.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag < 0 || lag >= n || n < 2 {
		return 0
	}
	mean := Mean(xs)
	num := 0.0
	den := 0.0
	for i := 0; i < n; i++ {
		d := xs[i] - mean
		den += d * d
		if i+lag < n {
			num += d * (xs[i+lag] - mean)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// CrossCorrelation returns the normalized cross-correlation of x and y at
// the given lag (y shifted right by lag relative to x). A positive lag
// means y follows x.
func CrossCorrelation(x, y []float64, lag int) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	if n < 2 {
		return 0
	}
	mx, my := Mean(x[:n]), Mean(y[:n])
	sx, sy := 0.0, 0.0
	for i := 0; i < n; i++ {
		dx := x[i] - mx
		dy := y[i] - my
		sx += dx * dx
		sy += dy * dy
	}
	if sx == 0 || sy == 0 {
		return 0
	}
	num := 0.0
	for i := 0; i+lag < n; i++ {
		if i+lag < 0 {
			continue
		}
		num += (x[i] - mx) * (y[i+lag] - my)
	}
	return num / math.Sqrt(sx*sy)
}

// EstimateLag scans lags in [0,maxLag] and returns the lag that maximizes
// CrossCorrelation(x,y,lag) together with the correlation at that lag.
// Use it to quantify how far the DB tier trails the web tier.
func EstimateLag(x, y []float64, maxLag int) (bestLag int, bestCorr float64) {
	bestCorr = math.Inf(-1)
	for lag := 0; lag <= maxLag; lag++ {
		c := CrossCorrelation(x, y, lag)
		if c > bestCorr {
			bestCorr = c
			bestLag = lag
		}
	}
	if math.IsInf(bestCorr, -1) {
		bestCorr = 0
	}
	return bestLag, bestCorr
}

// Jump is an abrupt sustained level shift detected in a series.
type Jump struct {
	// Index is the sample index where the shift is detected.
	Index int
	// Before and After are the level estimates around the shift.
	Before, After float64
}

// Magnitude reports After-Before.
func (j Jump) Magnitude() float64 { return j.After - j.Before }

// DetectJumps finds sustained upward or downward level shifts using a
// two-window mean comparison: a shift is reported at i when the mean of
// the window after i differs from the mean of the window before i by more
// than threshold. Consecutive detections are merged, keeping the largest.
// window is in samples; the paper's RAM "jumps" are detected with
// window=15 (30 s) and a threshold of ~50 MB.
func DetectJumps(xs []float64, window int, threshold float64) []Jump {
	if window < 1 || len(xs) < 2*window || threshold <= 0 {
		return nil
	}
	var jumps []Jump
	best := Jump{Index: -1}
	inRun := false
	flush := func() {
		if inRun {
			jumps = append(jumps, best)
			inRun = false
			best = Jump{Index: -1}
		}
	}
	for i := window; i+window <= len(xs); i++ {
		before := Mean(xs[i-window : i])
		after := Mean(xs[i : i+window])
		delta := after - before
		if math.Abs(delta) >= threshold {
			if !inRun || math.Abs(delta) > math.Abs(best.Magnitude()) {
				best = Jump{Index: i, Before: before, After: after}
			}
			inRun = true
		} else {
			flush()
		}
	}
	flush()
	return jumps
}

// LinearFit holds an ordinary least squares line y = A + B*x.
type LinearFit struct {
	A, B float64
	// R2 is the coefficient of determination.
	R2 float64
}

// FitLinear computes the least-squares line through (xs, ys). It returns
// an error when the inputs are mismatched or degenerate.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: FitLinear length mismatch %d vs %d", len(xs), len(ys))
	}
	n := float64(len(xs))
	if n < 2 {
		return LinearFit{}, fmt.Errorf("stats: FitLinear needs >=2 points, got %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: FitLinear degenerate x")
	}
	b := sxy / sxx
	a := my - b*mx
	fit := LinearFit{A: a, B: b}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 { return f.A + f.B*x }
