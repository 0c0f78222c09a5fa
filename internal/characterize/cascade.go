package characterize

import (
	"fmt"
	"io"
	"sort"

	"vwchar/internal/experiment"
	"vwchar/internal/sim"
	"vwchar/internal/telemetry"
)

// CascadeAnalysis is the correlated-failure view of a run: how many
// components went down, how correlated those losses were in time
// (blast radius, cascade depth), where the crashes came from
// (exogenous schedule features vs the load-coupled hazard), and how
// long the system took to deliver healthy service again after the
// first fault. It is the counterpart of AvailabilityAnalysis for runs
// that exercise shared-fate groups, fault storms, conditional
// triggers, or the endogenous crash hazard.
type CascadeAnalysis struct {
	// SLOMillis is the objective "stabilized" is judged against.
	SLOMillis float64

	// ExogenousCrashes counts crash-type down events in the expanded
	// fault timeline (web/db/machine); HazardCrashes counts crashes
	// the load-coupled hazard fired in-run. ByOrigin splits the
	// exogenous crashes by the correlation feature that produced them
	// ("base" for plain per-component events).
	ExogenousCrashes int
	HazardCrashes    int
	ByOrigin         map[string]int

	// BlastRadius is the peak number of components concurrently down
	// at any instant (exogenous outage spans plus hazard crash spans).
	// CascadeDepth is the size of the largest chain of crashes
	// connected by temporal overlap — 1 means every crash healed
	// before the next began; larger values mean losses compounded.
	BlastRadius  int
	CascadeDepth int

	// FirstFaultSec is when the first component went down.
	// TimeToStabilizeSec spans from that instant to the end of the
	// last telemetry window that was still unhealthy (availability
	// below 1 or p95 over the SLO). Stabilized reports whether the
	// run's final window was healthy — when false the time-to-
	// stabilize is a lower bound cut off by the horizon.
	FirstFaultSec      float64
	TimeToStabilizeSec float64
	Stabilized         bool

	// Brownout accounting (zero without an overload controller).
	DegradedWindows   int
	PeakBrownoutLevel int
	DroppedOptional   uint64
	DegradedRequests  uint64
}

// downSpan is one component outage interval on the run clock.
type downSpan struct {
	lo, hi sim.Time
}

// AnalyzeCascade computes the correlated-failure analysis of a run
// against an SLO in milliseconds. It is meaningful for runs with a
// fault schedule, correlation, or hazard configured; on a fault-free
// run everything reports healthy (no crashes, Stabilized true).
func AnalyzeCascade(r *experiment.Result, sloMillis float64) CascadeAnalysis {
	a := CascadeAnalysis{SLOMillis: sloMillis, Stabilized: true, ByOrigin: map[string]int{}}
	horizon := r.Config.Duration

	// Collect outage spans: pair each web, db or machine crash's down
	// event with its matching up event per (kind, target); an outage
	// still open at the horizon closes there. Degraded modes are not
	// component losses and do not count toward the blast radius.
	var spans []downSpan
	open := map[[2]int]sim.Time{} // (down kind, target) -> down time
	for _, ev := range r.FaultTimeline {
		if ev.Kind.ClassDown() {
			key := [2]int{int(ev.Kind), ev.Target}
			if _, dup := open[key]; !dup {
				open[key] = ev.At
			}
			a.ExogenousCrashes++
			origin := ev.Origin
			if origin == "" {
				origin = "base"
			}
			a.ByOrigin[origin]++
		} else if down, ok := ev.Kind.ClassUp(); ok {
			key := [2]int{int(down), ev.Target}
			if at, ok := open[key]; ok {
				spans = append(spans, downSpan{at, ev.At})
				delete(open, key)
			}
		}
	}
	for _, at := range open {
		spans = append(spans, downSpan{at, horizon})
	}
	if h := r.Hazard; h != nil {
		a.HazardCrashes = len(h.Crashes)
		for _, c := range h.Crashes {
			hi := c.RepairAt
			if hi == 0 || hi > horizon {
				hi = horizon
			}
			spans = append(spans, downSpan{c.At, hi})
		}
	}

	if len(spans) > 0 {
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		a.FirstFaultSec = spans[0].lo.Sec()

		// Blast radius: peak overlap via an endpoint sweep.
		type edge struct {
			at    sim.Time
			delta int
		}
		edges := make([]edge, 0, 2*len(spans))
		for _, s := range spans {
			edges = append(edges, edge{s.lo, +1}, edge{s.hi, -1})
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].at != edges[j].at {
				return edges[i].at < edges[j].at
			}
			return edges[i].delta < edges[j].delta // close before open at ties
		})
		cur := 0
		for _, e := range edges {
			cur += e.delta
			if cur > a.BlastRadius {
				a.BlastRadius = cur
			}
		}

		// Cascade depth: largest run of spans chained by overlap.
		depth, chainEnd := 0, sim.Time(-1)
		for _, s := range spans {
			if s.lo <= chainEnd {
				depth++
				if s.hi > chainEnd {
					chainEnd = s.hi
				}
			} else {
				depth = 1
				chainEnd = s.hi
			}
			if depth > a.CascadeDepth {
				a.CascadeDepth = depth
			}
		}
	}

	if b := r.Brownout; b != nil {
		a.DegradedWindows = b.DegradedWindows
		a.PeakBrownoutLevel = b.PeakLevel
		a.DroppedOptional = b.Dropped
	}
	if rq := r.Requests; rq != nil {
		a.DegradedRequests = rq.Degraded
	}

	// Time to stabilize: from the first fault to the end of the last
	// unhealthy telemetry window.
	avail, p95 := r.Telemetry.ByName(telemetry.Availability), r.Telemetry.ByName(telemetry.LatencyP95)
	if len(spans) > 0 && avail != nil {
		lastBad := -1
		for i := 0; i < avail.Len(); i++ {
			if avail.At(i) < 1 || p95.At(i) > sloMillis {
				lastBad = i
			}
		}
		if lastBad >= 0 {
			end := float64(lastBad+1) * avail.Interval
			if end > a.FirstFaultSec {
				a.TimeToStabilizeSec = end - a.FirstFaultSec
			}
			a.Stabilized = lastBad < avail.Len()-1
		}
	}
	return a
}

// Write renders the analysis for reports and the cascade example.
func (a CascadeAnalysis) Write(w io.Writer) error {
	origins := make([]string, 0, len(a.ByOrigin))
	for o := range a.ByOrigin {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	split := ""
	for _, o := range origins {
		if split != "" {
			split += ", "
		}
		split += fmt.Sprintf("%s %d", o, a.ByOrigin[o])
	}
	if split == "" {
		split = "none"
	}
	stable := "stabilized"
	if !a.Stabilized {
		stable = "NOT stabilized at horizon"
	}
	_, err := fmt.Fprintf(w,
		"cascade: %d exogenous crash(es) [%s], %d hazard crash(es); blast radius %d, cascade depth %d\n"+
			"first fault t=%.1f s, time-to-stabilize %.1f s (%s)\n"+
			"brownout: %d degraded window(s), peak level %d, %d optional request(s) dropped, %d answered degraded\n",
		a.ExogenousCrashes, split, a.HazardCrashes, a.BlastRadius, a.CascadeDepth,
		a.FirstFaultSec, a.TimeToStabilizeSec, stable,
		a.DegradedWindows, a.PeakBrownoutLevel, a.DroppedOptional, a.DegradedRequests)
	return err
}
