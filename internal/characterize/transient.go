package characterize

import (
	"fmt"
	"io"

	"vwchar/internal/timeseries"
)

// TransientConfig parameterizes AnalyzeTransient. The zero value gets
// the defaults below.
type TransientConfig struct {
	// BaselineFraction of the series (from the start) estimates the
	// steady-state p95; default 0.25. The baseline median ignores idle
	// (zero) windows so sparse early traffic does not zero the
	// threshold.
	BaselineFraction float64
	// SaturationFactor times the steady p95 is the saturation
	// threshold; default 10 — an order of magnitude of queueing, the
	// bar the flash-crowd example prints.
	SaturationFactor float64
}

func (c *TransientConfig) defaults() {
	if c.BaselineFraction <= 0 {
		c.BaselineFraction = 0.25
	}
	if c.SaturationFactor <= 1 {
		c.SaturationFactor = 10
	}
}

// Transient is the time-resolved queueing analysis of a per-window
// latency series — what a run-level scalar cannot show: when the
// system saturated, how bad the peak window was, and how long the
// queue took to drain once the spike passed.
type Transient struct {
	// SteadyP95 is the baseline per-window p95 (ms) and Threshold the
	// saturation bar derived from it.
	SteadyP95, Threshold float64
	// PeakP95 is the worst window's p95 (ms) at time PeakAt (s).
	PeakP95, PeakAt float64
	// SaturatedAt is the time (s) of the first window whose p95
	// crossed the threshold — the time to saturation; -1 when the run
	// never saturated.
	SaturatedAt float64
	// DrainedAt is the time (s) of the first post-peak window back
	// under the threshold; -1 while still saturated at series end.
	DrainedAt float64
	// DrainSeconds is DrainedAt - PeakAt (0 when either is undefined).
	DrainSeconds float64
	// SaturatedWindows counts windows above the threshold.
	SaturatedWindows int
}

// Saturated reports whether the series ever crossed the threshold.
func (t Transient) Saturated() bool { return t.SaturatedAt >= 0 }

// AnalyzeTransient computes the queueing transient of a windowed
// latency series (typically Result.Telemetry's telemetry.LatencyP95
// series). The steady baseline is the median of the non-idle prefix
// windows; saturation is the first crossing of factor×steady; drain is
// the first post-peak window back under the threshold.
func AnalyzeTransient(p95 *timeseries.Series, cfg TransientConfig) Transient {
	cfg.defaults()
	out := Transient{SaturatedAt: -1, DrainedAt: -1}
	n := p95.Len()
	if n == 0 {
		return out
	}
	baseLen := int(float64(n) * cfg.BaselineFraction)
	if baseLen < 1 {
		baseLen = 1
	}
	base := make([]float64, 0, baseLen)
	for i := 0; i < baseLen; i++ {
		if v := p95.At(i); v > 0 {
			base = append(base, v)
		}
	}
	baseline := timeseries.Series{Values: base}
	out.SteadyP95 = baseline.Quantile(0.5)
	if out.SteadyP95 <= 0 {
		// No usable baseline (the spike was already underway, or the
		// run never served traffic): report the peak only.
		out.PeakP95, out.PeakAt = peakOf(p95)
		return out
	}
	out.Threshold = out.SteadyP95 * cfg.SaturationFactor

	peakIdx := 0
	for i := 0; i < n; i++ {
		v := p95.At(i)
		if v > p95.At(peakIdx) {
			peakIdx = i
		}
		if v > out.Threshold {
			out.SaturatedWindows++
			if out.SaturatedAt < 0 {
				out.SaturatedAt = p95.TimeAt(i)
			}
		}
	}
	out.PeakP95, out.PeakAt = p95.At(peakIdx), p95.TimeAt(peakIdx)
	if out.SaturatedAt < 0 {
		return out
	}
	for i := peakIdx + 1; i < n; i++ {
		if p95.At(i) <= out.Threshold {
			out.DrainedAt = p95.TimeAt(i)
			out.DrainSeconds = out.DrainedAt - out.PeakAt
			break
		}
	}
	return out
}

func peakOf(s *timeseries.Series) (peak, at float64) {
	for i := 0; i < s.Len(); i++ {
		if v := s.At(i); v > peak {
			peak, at = v, s.TimeAt(i)
		}
	}
	return peak, at
}

// Write renders the transient for reports and the flash-crowd example.
func (t Transient) Write(w io.Writer) error {
	if t.Threshold <= 0 {
		_, err := fmt.Fprintf(w,
			"no usable steady baseline (idle or already-saturated prefix): peak p95 %.1f ms at t=%.0fs\n",
			t.PeakP95, t.PeakAt)
		return err
	}
	if !t.Saturated() {
		_, err := fmt.Fprintf(w,
			"no saturation transient: steady p95 %.1f ms, peak %.1f ms at t=%.0fs (threshold %.1f ms never crossed)\n",
			t.SteadyP95, t.PeakP95, t.PeakAt, t.Threshold)
		return err
	}
	drained := "not drained by series end"
	if t.DrainedAt >= 0 {
		drained = fmt.Sprintf("drained at t=%.0fs (%.0f s after the peak)", t.DrainedAt, t.DrainSeconds)
	}
	_, err := fmt.Fprintf(w,
		"saturation transient: steady p95 %.1f ms -> first crossed %.0fx at t=%.0fs, peak %.1f ms at t=%.0fs, %s (%d windows above threshold)\n",
		t.SteadyP95, t.Threshold/t.SteadyP95, t.SaturatedAt, t.PeakP95, t.PeakAt, drained, t.SaturatedWindows)
	return err
}
