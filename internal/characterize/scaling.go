package characterize

import (
	"fmt"
	"io"

	"vwchar/internal/experiment"
	"vwchar/internal/telemetry"
)

// ScalingAnalysis is the autoscaler-in-the-loop view of a run: how
// long the first capacity addition took, how far the cluster grew, how
// bad the worst window was, and the run's SLO debt split into demand
// served slowly versus demand driven away (sessions abandoning after a
// violating response). The two debt halves answer different questions:
// served-slow is user pain the site absorbed; driven-away is revenue
// the site lost.
type ScalingAnalysis struct {
	// SLOMillis is the objective the debt is accounted against.
	SLOMillis float64

	// TimeToScaleSec is the first scale-up's activation time in seconds
	// from run start (boot delay included); -1 when the run never scaled
	// (no autoscaler, or it never fired).
	TimeToScaleSec float64
	PeakReplicas   int
	ScaleUps       int
	ScaleDowns     int

	// PeakP95 is the worst telemetry window's p95 (ms) at PeakAt (s).
	PeakP95, PeakAt float64

	// Served counts every completed response; SLOViolations those over
	// the objective. DrivenAway is the subset of violations that ended
	// their session (abandonment); ServedSlow the rest.
	Served        uint64
	SLOViolations uint64
	ServedSlow    uint64
	DrivenAway    uint64

	// ServedDebtSec and DrivenAwayDebtSec split the total exceedance
	// sum(max(0, rt-SLO)) in seconds between the two halves, at
	// histogram resolution.
	ServedDebtSec     float64
	DrivenAwayDebtSec float64
}

// Scaled reports whether the run ever added capacity.
func (a ScalingAnalysis) Scaled() bool { return a.TimeToScaleSec >= 0 }

// TotalDebtSec is the run's whole SLO debt in seconds.
func (a ScalingAnalysis) TotalDebtSec() float64 { return a.ServedDebtSec + a.DrivenAwayDebtSec }

// AnalyzeScaling computes the scaling analysis of a run against an SLO
// in milliseconds. It needs the run histograms (always present) and
// uses Result.Scaling when the run had a cluster topology; without one
// the capacity fields report a fixed single replica.
func AnalyzeScaling(r *experiment.Result, sloMillis float64) ScalingAnalysis {
	a := ScalingAnalysis{SLOMillis: sloMillis, TimeToScaleSec: -1, PeakReplicas: 1}
	if r.Scaling != nil {
		a.PeakReplicas = r.Scaling.PeakReplicas
		a.ScaleUps = r.Scaling.ScaleUps
		a.ScaleDowns = r.Scaling.ScaleDowns
		if r.Scaling.ScaleUps > 0 {
			a.TimeToScaleSec = r.Scaling.FirstUpAt.Sec()
		}
	}
	if p95 := r.Telemetry.ByName(telemetry.LatencyP95); p95 != nil {
		a.PeakP95, a.PeakAt = peakOf(p95)
	}
	slo := sloMillis / 1e3
	if served := r.ServedHist; served != nil {
		a.Served = served.Count()
		a.SLOViolations = served.CountAbove(slo)
		debt := served.ExcessAbove(slo)
		if ab := r.AbandonedHist; ab != nil {
			// Abandoned responses are recorded in the served histogram
			// too (they were served, just slowly); subtract them out to
			// split the debt rather than double-count it.
			a.DrivenAway = ab.CountAbove(slo)
			a.DrivenAwayDebtSec = ab.ExcessAbove(slo)
		}
		a.ServedSlow = a.SLOViolations - a.DrivenAway
		a.ServedDebtSec = debt - a.DrivenAwayDebtSec
		if a.ServedDebtSec < 0 {
			a.ServedDebtSec = 0
		}
	}
	return a
}

// Write renders the analysis for reports and the autoscale example.
func (a ScalingAnalysis) Write(w io.Writer) error {
	scale := "never scaled (fixed capacity)"
	if a.Scaled() {
		scale = fmt.Sprintf("first scale-up active at t=%.0fs; %d up / %d down, peak %d replicas",
			a.TimeToScaleSec, a.ScaleUps, a.ScaleDowns, a.PeakReplicas)
	}
	_, err := fmt.Fprintf(w,
		"scaling: %s\npeak window p95 %.1f ms at t=%.0fs\nSLO %.0f ms: %d/%d responses violated; debt %.1f s served-slow + %.1f s driven-away (%d sessions lost)\n",
		scale, a.PeakP95, a.PeakAt,
		a.SLOMillis, a.SLOViolations, a.Served,
		a.ServedDebtSec, a.DrivenAwayDebtSec, a.DrivenAway)
	return err
}
