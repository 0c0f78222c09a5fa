package model

import (
	"fmt"
	"math"

	"vwchar/internal/experiment"
	"vwchar/internal/load"
	"vwchar/internal/stats"
	"vwchar/internal/telemetry"
	"vwchar/internal/timeseries"
)

// ArrivalFit is the moment-based fit of an arrival process to a
// windowed arrival-count series — the reverse of trace replay: where
// internal/load turns a Spec into arrivals, FitArrivals turns observed
// per-window arrival counts back into a runnable Spec.
type ArrivalFit struct {
	// Kind is the classified family (Poisson, Bursty, or Diurnal).
	Kind load.Kind
	// Spec is a validated, runnable spec reproducing the fitted
	// moments; feed it to load.Spec.Build or experiment.Config.Load.
	Spec load.Spec
	// MeanRate is the fitted mean intensity (arrivals/s).
	MeanRate float64
	// IoD is the index of dispersion of the window counts (variance
	// over mean): ~1 for Poisson, >1 for bursty or periodic processes.
	IoD float64
	// Period and Amplitude are the detected cycle for Diurnal fits
	// (zero otherwise).
	Period, Amplitude float64
}

// String renders the fit for reports.
func (f ArrivalFit) String() string {
	switch f.Kind {
	case load.Bursty:
		return fmt.Sprintf("bursty: base %.3g/s x%.2f burst, dwell %.3gs/%.3gs (IoD %.2f)",
			f.Spec.Rate, f.Spec.BurstFactor, f.Spec.BaseDwell, f.Spec.BurstDwell, f.IoD)
	case load.Diurnal:
		return fmt.Sprintf("diurnal: %.3g/s, amplitude %.2f, period %.3gs (IoD %.2f)",
			f.Spec.Rate, f.Spec.Amplitude, f.Spec.PeriodSeconds, f.IoD)
	default:
		return fmt.Sprintf("poisson: %.3g/s (IoD %.2f)", f.MeanRate, f.IoD)
	}
}

// Classification thresholds. Window counts of a homogeneous Poisson
// process have IoD 1; sampling noise over a few hundred windows stays
// well inside the band below. A sinusoidal rate adds variance at the
// cycle period, which the spectral projection sees; an MMPP adds
// variance with an exponentially decaying (aperiodic) correlation.
const (
	// poissonIoDBand accepts |IoD-1| below it as Poisson.
	poissonIoDBand = 0.35
	// diurnalMinAmp is the minimum relative spectral amplitude that
	// counts as periodicity.
	diurnalMinAmp = 0.25
	// diurnalExplainedFrac is how much of the IoD-implied amplitude
	// the measured harmonic must reach to classify as diurnal. For a
	// sinusoidal rate the excess dispersion is entirely the harmonic
	// (IoD-1 = mean*A^2/2, so A_iod = sqrt(2*(IoD-1)/mean) equals the
	// spectral amplitude); an MMPP's excess variance is aperiodic, so
	// its incidental spectral peak falls far short of A_iod.
	diurnalExplainedFrac = 0.6
)

// FitArrivals fits an arrival process to a windowed arrival-count
// series (counts per window, as the telemetry pipeline's
// sessions_started series reports): moment-based classification into
// Poisson / bursty MMPP / diurnal from the index of dispersion and the
// dominant-period moments, then family-specific parameter estimation.
func FitArrivals(counts *timeseries.Series) (ArrivalFit, error) {
	n := counts.Len()
	if n < 10 {
		return ArrivalFit{}, fmt.Errorf("model: arrival series %q too short (%d windows)", counts.Name, n)
	}
	w := counts.Interval
	if w <= 0 {
		return ArrivalFit{}, fmt.Errorf("model: arrival series %q has no window length", counts.Name)
	}
	sum := stats.Summarize(counts.Values)
	if sum.Mean <= 0 {
		return ArrivalFit{}, fmt.Errorf("model: arrival series %q is empty", counts.Name)
	}
	fit := ArrivalFit{
		MeanRate: sum.Mean / w,
		IoD:      sum.Variance / sum.Mean,
	}

	period, amp := dominantPeriod(counts)
	// The amplitude the IoD would imply if the excess dispersion were
	// purely sinusoidal.
	ampFromIoD := math.Sqrt(2 * math.Max(0, fit.IoD-1) / sum.Mean)
	switch {
	case fit.IoD > 1+poissonIoDBand && amp >= diurnalMinAmp &&
		amp >= diurnalExplainedFrac*ampFromIoD:
		fit.Kind = load.Diurnal
		fit.Period, fit.Amplitude = period, amp
		if fit.Amplitude >= 0.95 {
			fit.Amplitude = 0.95
		}
		fit.Spec = load.Spec{
			Kind:          load.Diurnal,
			Rate:          fit.MeanRate,
			Amplitude:     fit.Amplitude,
			PeriodSeconds: period,
		}
	case fit.IoD > 1+poissonIoDBand:
		fit.Kind = load.Bursty
		fit.Spec = fitMMPP(counts, fit.MeanRate)
	default:
		fit.Kind = load.Poisson
		fit.Spec = load.Spec{Kind: load.Poisson, Rate: fit.MeanRate}
	}
	if err := fit.Spec.Validate(); err != nil {
		return ArrivalFit{}, fmt.Errorf("model: fitted spec invalid: %w", err)
	}
	return fit, nil
}

// FitArrivalsFromResult fits the arrival process of an open-loop run
// from its telemetry: the per-window session-start counts the recorder
// collected on the collector's 2 s ticker. Windows covered by the
// spec's ramp-in are dropped first — the ramp thins admissions
// deterministically, and its rising prefix would otherwise inflate the
// index of dispersion enough to misclassify a steady process as
// bursty.
func FitArrivalsFromResult(r *experiment.Result) (ArrivalFit, error) {
	starts := r.Telemetry.ByName(telemetry.SessionStarts)
	if starts == nil {
		return ArrivalFit{}, fmt.Errorf("model: result has no telemetry")
	}
	if l := r.Config.Load; l != nil && l.RampSeconds > 0 && starts.Interval > 0 {
		skip := int(math.Ceil(l.RampSeconds / starts.Interval))
		if skip >= starts.Len() {
			return ArrivalFit{}, fmt.Errorf("model: ramp (%.0f s) covers the whole run", l.RampSeconds)
		}
		starts = starts.Slice(skip, starts.Len())
	}
	return FitArrivals(starts)
}

// dominantPeriod projects the count series onto sine/cosine pairs at
// every candidate whole-window period and returns the period with the
// largest relative amplitude (first-harmonic moment): for a rate
// lambda(t) = lambda*(1 + A*sin(2*pi*t/P)) the projection at P
// recovers A, while aperiodic overdispersion (MMPP) spreads its excess
// variance across all candidates.
func dominantPeriod(counts *timeseries.Series) (period, relAmp float64) {
	n := counts.Len()
	w := counts.Interval
	mean := counts.Mean()
	if mean <= 0 {
		return 0, 0
	}
	for k := 4; k <= n/2; k++ {
		p := float64(k) * w
		var a, b float64
		for i := 0; i < n; i++ {
			// Window i covers [i*w, (i+1)*w); use its midpoint phase.
			phase := 2 * math.Pi * (float64(i) + 0.5) * w / p
			dev := counts.At(i) - mean
			a += dev * math.Sin(phase)
			b += dev * math.Cos(phase)
		}
		amp := 2 * math.Hypot(a, b) / (float64(n) * mean)
		if amp > relAmp {
			relAmp, period = amp, p
		}
	}
	return period, relAmp
}

// fitMMPP estimates a two-state MMPP from the count series by a
// deterministic two-means split (threshold iteration on the window
// counts), then run-length moments: state rates from the class means,
// dwell times from the mean run length of consecutive same-class
// windows. Valid when windows are short relative to dwell times —
// exactly the regime the telemetry's 2 s windows versus tens-of-
// seconds dwells sit in.
func fitMMPP(counts *timeseries.Series, meanRate float64) load.Spec {
	n := counts.Len()
	w := counts.Interval
	// Two-means threshold iteration (deterministic, a few passes).
	lo, hi := counts.Min(), counts.Max()
	thr := (lo + hi) / 2
	for iter := 0; iter < 16; iter++ {
		var sumLo, sumHi float64
		var nLo, nHi int
		for _, v := range counts.Values {
			if v > thr {
				sumHi += v
				nHi++
			} else {
				sumLo += v
				nLo++
			}
		}
		if nLo == 0 || nHi == 0 {
			break
		}
		next := (sumLo/float64(nLo) + sumHi/float64(nHi)) / 2
		if next == thr {
			break
		}
		thr = next
	}

	var sumLo, sumHi float64
	var nLo, nHi int
	var burstRuns, baseRuns, burstWins, baseWins int
	prevBurst := false
	for i, v := range counts.Values {
		burst := v > thr
		if burst {
			sumHi += v
			nHi++
			burstWins++
		} else {
			sumLo += v
			nLo++
			baseWins++
		}
		if i > 0 && burst != prevBurst {
			if prevBurst {
				burstRuns++
			} else {
				baseRuns++
			}
		}
		prevBurst = burst
	}
	if prevBurst {
		burstRuns++
	} else {
		baseRuns++
	}
	if nLo == 0 || nHi == 0 || burstRuns == 0 || baseRuns == 0 {
		// Degenerate split: the series is not two-state separable at
		// this window size; return an overdispersion-matching fallback
		// (mild burst around the mean) rather than failing validation.
		return load.Spec{Kind: load.Bursty, Rate: meanRate * 0.8,
			BurstFactor: 1.5, BaseDwell: float64(n) * w / 4, BurstDwell: float64(n) * w / 4}
	}
	baseRate := sumLo / float64(nLo) / w
	burstRate := sumHi / float64(nHi) / w
	if baseRate <= 0 {
		baseRate = 0.1 * meanRate
	}
	factor := burstRate / baseRate
	if factor <= 1.01 {
		factor = 1.01
	}
	baseDwell := float64(baseWins) / float64(baseRuns) * w
	burstDwell := float64(burstWins) / float64(burstRuns) * w
	return load.Spec{
		Kind:        load.Bursty,
		Rate:        baseRate,
		BurstFactor: factor,
		BaseDwell:   baseDwell,
		BurstDwell:  burstDwell,
	}
}
