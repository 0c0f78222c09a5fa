package characterize

import (
	"fmt"
	"io"

	"vwchar/internal/experiment"
	"vwchar/internal/telemetry"
)

// AvailabilityAnalysis is the fault-injection view of a run: what
// fraction of offered demand was actually delivered, how the rest was
// lost (timeouts, sheds, hard failures), how long outages lasted as
// the clients observed them, how fast failover promoted a new DB
// primary, and how much SLO debt accrued specifically inside degraded
// windows. It is the availability counterpart of ScalingAnalysis.
type AvailabilityAnalysis struct {
	// SLOMillis is the objective fault-attributable debt is accounted
	// against.
	SLOMillis float64

	// Request accounting (from Result.Requests).
	Issued   uint64
	Served   uint64
	TimedOut uint64
	Shed     uint64
	Failed   uint64
	Degraded uint64
	InFlight uint64

	// Delivered is RequestStats.Availability: the fraction of demand
	// with a concluded outcome that got a real response.
	Delivered float64

	// Guard interventions (zero without a Resilience spec).
	Retries      uint64
	BreakerOpens uint64

	// Failovers counts DB primary promotions;
	// MeanTimeToFailoverSec is the mean promoted-minus-detected gap.
	Failovers             int
	MeanTimeToFailoverSec float64

	// Outages counts maximal runs of telemetry windows whose
	// availability dropped below 99%; MTTRObservedSec is their mean
	// length — repair time as the clients experienced it, not as the
	// fault schedule wrote it. OpenOutageAtEnd reports an outage still
	// in progress when the run's horizon cut it off: its observed
	// length (and so the MTTR mean) is a lower bound, and the system
	// never demonstrated recovery from it.
	Outages         int
	MTTRObservedSec float64
	OpenOutageAtEnd bool

	// WorstWindowAvailability is the minimum per-window availability;
	// FaultWindows counts windows below 100%.
	WorstWindowAvailability float64
	FaultWindows            int

	// SLODebtFaultSec approximates the SLO exceedance accrued inside
	// degraded windows (availability < 1 and window p95 over the SLO):
	// sum of (p95-SLO) x window throughput x interval. Tail latency
	// the faults caused, as opposed to the run-level debt
	// AnalyzeScaling reports.
	SLODebtFaultSec float64
}

// outageThreshold is the per-window availability below which a window
// counts as an outage for MTTR-as-observed accounting.
const outageThreshold = 0.99

// AnalyzeAvailability computes the availability analysis of a run
// against an SLO in milliseconds. It is meaningful for runs with
// Faults or Resilience configured; on a fault-free run everything
// reports healthy (Delivered 1, no outages).
func AnalyzeAvailability(r *experiment.Result, sloMillis float64) AvailabilityAnalysis {
	a := AvailabilityAnalysis{SLOMillis: sloMillis, Delivered: 1, WorstWindowAvailability: 1}
	if rq := r.Requests; rq != nil {
		a.Issued = rq.Issued
		a.Served = rq.Served
		a.TimedOut = rq.TimedOut
		a.Shed = rq.Shed
		a.Failed = rq.Failed
		a.Degraded = rq.Degraded
		a.InFlight = rq.InFlight
		a.Delivered = rq.Availability()
	}
	if g := r.Guard; g != nil {
		a.Retries = g.Retries
		a.BreakerOpens = g.BreakerOpens
	}
	a.Failovers = len(r.Failovers)
	for _, f := range r.Failovers {
		a.MeanTimeToFailoverSec += (f.PromotedAt - f.DetectedAt).Sec()
	}
	if a.Failovers > 0 {
		a.MeanTimeToFailoverSec /= float64(a.Failovers)
	}
	avail := r.Telemetry.ByName(telemetry.Availability)
	if avail == nil {
		return a
	}
	p95 := r.Telemetry.ByName(telemetry.LatencyP95)
	tput := r.Telemetry.ByName(telemetry.Throughput)
	outageWindows := 0
	inOutage := false
	for i := 0; i < avail.Len(); i++ {
		v := avail.At(i)
		if v < a.WorstWindowAvailability {
			a.WorstWindowAvailability = v
		}
		if v < 1 {
			a.FaultWindows++
			if p := p95.At(i); p > sloMillis {
				a.SLODebtFaultSec += (p - sloMillis) / 1e3 * tput.At(i) * avail.Interval
			}
		}
		if v < outageThreshold {
			outageWindows++
			if !inOutage {
				inOutage = true
				a.Outages++
			}
		} else {
			inOutage = false
		}
	}
	a.OpenOutageAtEnd = inOutage
	if a.Outages > 0 {
		a.MTTRObservedSec = float64(outageWindows) * avail.Interval / float64(a.Outages)
	}
	return a
}

// Write renders the analysis for reports and the chaos example.
func (a AvailabilityAnalysis) Write(w io.Writer) error {
	failover := "no failovers"
	if a.Failovers > 0 {
		failover = fmt.Sprintf("%d failover(s), mean time-to-failover %.1f s", a.Failovers, a.MeanTimeToFailoverSec)
	}
	outage := "no outage windows"
	if a.Outages > 0 {
		outage = fmt.Sprintf("%d outage(s), MTTR-as-observed %.1f s", a.Outages, a.MTTRObservedSec)
		if a.OpenOutageAtEnd {
			outage += " (STILL OPEN at run end)"
		}
	}
	degraded := ""
	if a.Degraded > 0 {
		degraded = fmt.Sprintf(" (%d degraded)", a.Degraded)
	}
	_, err := fmt.Fprintf(w,
		"availability: %.4f delivered (%d served / %d timed-out / %d shed / %d failed of %d issued, %d in flight)"+degraded+"\n"+
			"retries %d, breaker opens %d; %s\n"+
			"%s; worst window %.3f, %d degraded windows, fault-attributed SLO debt %.1f s (SLO %.0f ms)\n",
		a.Delivered, a.Served, a.TimedOut, a.Shed, a.Failed, a.Issued, a.InFlight,
		a.Retries, a.BreakerOpens, failover,
		outage, a.WorstWindowAvailability, a.FaultWindows, a.SLODebtFaultSec, a.SLOMillis)
	return err
}
