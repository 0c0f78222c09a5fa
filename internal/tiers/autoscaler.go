package tiers

import (
	"vwchar/internal/sim"
	"vwchar/internal/telemetry"
	"vwchar/internal/timeseries"
)

// Autoscaler closes the characterization loop: it watches the driver's
// per-window latency telemetry as the run unfolds and activates or
// drains web replicas through the cluster. experiment.Run hooks
// OnSample onto the sysstat collector after the drivers' window
// rotation, so each decision sees the window that just closed.
//
// The reactive policy scales up after ScaleUpWindows consecutive
// windows whose p95 violated the SLO, and drains after
// ScaleDownWindows consecutive windows comfortably under it. The
// predictive policy additionally fits a least-squares trend to the
// recent p95 history and scales up when the projection
// LookaheadWindows ahead crosses the SLO — buying back the boot delay
// on ramps that the reactive policy only reacts to after the fact.
type Autoscaler struct {
	c    *WebCluster
	spec AutoscalerSpec

	// The window series read each sample, resolved by name at
	// construction; the collapse signals may be nil.
	p95, tput, inflight, timeouts, failures, avail *timeseries.Series

	cooldown sim.Time
	boot     sim.Time

	hot, calm int
	lastOp    sim.Time
	opped     bool
}

// NewAutoscaler builds an autoscaler driving c from the driver
// telemetry tel, whose series must all be registered by now. The
// spec's zero-valued knobs are defaulted.
func NewAutoscaler(c *WebCluster, tel *timeseries.Set, spec AutoscalerSpec) *Autoscaler {
	spec = spec.withDefaults()
	return &Autoscaler{
		c:        c,
		spec:     spec,
		p95:      tel.ByName(telemetry.LatencyP95),
		tput:     tel.ByName(telemetry.Throughput),
		inflight: tel.ByName(telemetry.Inflight),
		timeouts: tel.ByName(telemetry.Timeouts),
		failures: tel.ByName(telemetry.Failures),
		avail:    tel.ByName(telemetry.Availability),
		cooldown: sim.Seconds(spec.CooldownSeconds),
		boot:     sim.Seconds(spec.BootSeconds),
	}
}

// OnSample is the collector hook: classify the window that just closed
// and act when the streak and cooldown allow.
func (a *Autoscaler) OnSample(now sim.Time) {
	n := a.p95.Len()
	if n == 0 {
		return
	}
	if a.tput.Values[n-1] <= 0 {
		if !a.collapsed(n) {
			// Idle windows (no completions, nothing trapped in flight)
			// carry no latency signal; they break a hot streak but do
			// not count as calm either — an idle system should drain on
			// sustained quiet, which the throughput gate still allows
			// once traffic resumes at a trickle.
			a.hot = 0
			return
		}
		// Total collapse: no completions, yet demand is trapped in
		// flight or concluding abnormally. There is no p95 to compare,
		// but treating the window as quiet would reset the very
		// violation streak the detection window needs to fire during
		// the outage — count it as violating instead (composite
		// in-flight/timeout/availability signal).
		a.hot++
		a.calm = 0
	} else {
		p95 := a.p95.Values[n-1]
		signal := p95
		if a.spec.Policy == AutoscalePredictive {
			if proj := a.projectP95(n); proj > signal {
				signal = proj
			}
		}
		switch {
		case signal > a.spec.SLOMillis:
			a.hot++
			a.calm = 0
		case p95 < a.spec.LowFraction*a.spec.SLOMillis:
			a.calm++
			a.hot = 0
		default:
			a.hot, a.calm = 0, 0
		}
	}
	if a.opped && now-a.lastOp < a.cooldown {
		return
	}
	if a.hot >= a.spec.ScaleUpWindows {
		// Double-provision guard: while a replica is still booting the
		// hot signal is already being acted on — hold the streak and
		// re-decide once it lands, instead of booting a second replica
		// for the same overload.
		if a.c.Booting() > 0 {
			return
		}
		if a.c.ScaleUp(a.boot, "p95 over SLO") {
			a.lastOp, a.opped = now, true
		}
		a.hot = 0
	} else if a.calm >= a.spec.ScaleDownWindows {
		if a.c.ScaleDown("p95 well under SLO") {
			a.lastOp, a.opped = now, true
		}
		a.calm = 0
	}
}

// collapsed distinguishes a genuinely idle zero-throughput window from
// total collapse, using whichever live signals the run carries:
// requests trapped in flight at the boundary, abnormal conclusions
// (timeouts/failures) within the window, or availability below one.
func (a *Autoscaler) collapsed(n int) bool {
	if a.inflight != nil && n <= a.inflight.Len() && a.inflight.Values[n-1] > 0 {
		return true
	}
	if a.timeouts != nil && a.failures != nil && n <= a.timeouts.Len() &&
		a.timeouts.Values[n-1]+a.failures.Values[n-1] > 0 {
		return true
	}
	if a.avail != nil && n <= a.avail.Len() && a.avail.Values[n-1] < 1 {
		return true
	}
	return false
}

// projectP95 extrapolates the p95 series LookaheadWindows ahead with an
// ordinary least-squares line over the trailing fit window. Short
// histories fall back to the last observation.
func (a *Autoscaler) projectP95(n int) float64 {
	fit := 2 * a.spec.LookaheadWindows
	if fit < 4 {
		fit = 4
	}
	if n < fit {
		return a.p95.Values[n-1]
	}
	vals := a.p95.Values[n-fit : n]
	var sx, sy, sxx, sxy float64
	for i, v := range vals {
		x := float64(i)
		sx += x
		sy += v
		sxx += x * x
		sxy += x * v
	}
	fn := float64(fit)
	den := fn*sxx - sx*sx
	if den == 0 {
		return vals[fit-1]
	}
	slope := (fn*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / fn
	return intercept + slope*float64(fit-1+a.spec.LookaheadWindows)
}
