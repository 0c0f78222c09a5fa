package faults

import (
	"fmt"
	"math"
	"sort"

	"vwchar/internal/rng"
	"vwchar/internal/sim"
)

// Correlation layers coupled failure modes on top of the independent
// per-(component, target) streams of the base Schedule. All three
// shapes stay pre-expanded and deterministic: groups draw nothing, and
// every storm and trigger draws from its own named substream, so adding
// one never perturbs the base components or each other, and the
// expansion is identical at any worker count.
type Correlation struct {
	// Groups are shared-fate machine groups: one crash fells every
	// member machine together (a rack loss; every VM placed on a member
	// goes down at the same instant).
	Groups []SharedFateGroup
	// Storms are modulated cluster-wide crash processes whose intensity
	// follows a configurable profile (e.g. the diurnal peak), expanded
	// via thinning.
	Storms []Storm
	// Triggers are conditional hazards: a component's MTTF shrinks to
	// the trigger's MTTF while another component is down.
	Triggers []Trigger
}

// SharedFateGroup names a set of machines that fail together, once: at
// AtSeconds every member machine emits a MachineDown, and MTTRSeconds
// later they recover together (never when MTTRSeconds <= 0).
type SharedFateGroup struct {
	Name        string
	Machines    []int
	MTTRSeconds float64
	AtSeconds   float64
}

// Storm profile names.
const (
	// ProfileFlat is a homogeneous Poisson storm at RatePerHour.
	ProfileFlat = "flat"
	// ProfileDiurnal modulates the rate sinusoidally with the given
	// period, peaking at PeakFactor x RatePerHour at PeakSeconds.
	ProfileDiurnal = "diurnal"
)

// Storm is a cluster-wide crash process over one component class. Each
// occurrence picks a victim uniformly from the whole class. The
// nonhomogeneous process is expanded by thinning: candidate arrivals are
// drawn homogeneously at the peak rate from the storm's named substream
// and accepted with probability rate(t)/peak, so the draw sequence is
// self-contained per storm.
type Storm struct {
	Name string
	// Component selects the victim class: "web_crash", "db_crash", or
	// "machine_crash".
	Component string
	// RatePerHour is the baseline storm intensity (occurrences/hour).
	RatePerHour float64
	// Profile is ProfileFlat (default) or ProfileDiurnal.
	Profile string
	// PeriodSeconds is the diurnal period (default 86400).
	PeriodSeconds float64
	// PeakSeconds is when the diurnal intensity peaks (default
	// PeriodSeconds/2).
	PeakSeconds float64
	// PeakFactor is the peak/baseline intensity ratio (default 3).
	PeakFactor float64
	// MTTRSeconds is the mean (exponential) repair time per occurrence;
	// <= 0 makes storm losses permanent.
	MTTRSeconds float64
}

// Trigger condition/component classes.
const (
	ClassWeb     = "web"
	ClassDB      = "db"
	ClassMachine = "machine"
)

// Trigger shrinks a component's MTTF while a condition component is
// down: while (While, WhileTarget) is down in the already-expanded
// timeline, each trigger target draws failures at rate 1/MTTFSeconds
// from its own named substream (thinned to the condition's down
// intervals), modeling e.g. a replica whose overload-failure odds jump
// while its peer is out.
type Trigger struct {
	Name string
	// While and WhileTarget name the condition: "web", "db", or
	// "machine" instance whose down intervals arm the trigger.
	While       string
	WhileTarget int
	// Component is the victim class ("web_crash", "db_crash",
	// "machine_crash").
	Component string
	// Targets restricts victims; empty means the whole class.
	Targets []int
	// MTTFSeconds is the conditional mean time to failure while armed.
	MTTFSeconds float64
	// MTTRSeconds is the mean (exponential) repair time; <= 0 permanent.
	MTTRSeconds float64
}

// Empty reports whether the correlation adds no events.
func (c *Correlation) Empty() bool {
	return c == nil || (len(c.Groups) == 0 && len(c.Storms) == 0 && len(c.Triggers) == 0)
}

// minMTTF is the smallest accepted mean time between failures; it
// bounds the expanded event count so hostile configs (fuzzing) cannot
// explode the timeline.
const minMTTF = 1e-3

// maxStormRatePerHour bounds storm intensity for the same reason
// (peak rate included: RatePerHour * PeakFactor must stay under it).
const maxStormRatePerHour = 3600 * 100

// crashComponent returns the web, db or machine crash named component,
// the victims of a storm or trigger; crashClass returns the one whose
// class is a trigger's While. Both return nil for any other value.
func crashComponent(component string) *componentDef {
	return crash(func(d *componentDef) bool { return d.name == component })
}

func crashClass(class string) *componentDef {
	return crash(func(d *componentDef) bool { return d.class == class })
}

// Validate checks the correlation config. Like Schedule.Validate it
// does not check target indices against a topology.
func (c *Correlation) Validate() error {
	if c == nil {
		return nil
	}
	names := make(map[string]bool)
	unique := func(kind, name string) error {
		if name == "" {
			return fmt.Errorf("faults: correlation: %s needs a name (it seeds the substream)", kind)
		}
		key := kind + "/" + name
		if names[key] {
			return fmt.Errorf("faults: correlation: duplicate %s name %q", kind, name)
		}
		names[key] = true
		return nil
	}
	for i := range c.Groups {
		g := &c.Groups[i]
		if err := unique("group", g.Name); err != nil {
			return err
		}
		if len(g.Machines) == 0 {
			return fmt.Errorf("faults: group %q: needs at least one machine", g.Name)
		}
		for _, m := range g.Machines {
			if m < 0 {
				return fmt.Errorf("faults: group %q: negative machine index %d", g.Name, m)
			}
		}
		if g.MTTRSeconds < 0 {
			return fmt.Errorf("faults: group %q: negative MTTRSeconds", g.Name)
		}
		if g.AtSeconds <= 0 {
			return fmt.Errorf("faults: group %q: need AtSeconds > 0", g.Name)
		}
	}
	for i := range c.Storms {
		s := &c.Storms[i]
		if err := unique("storm", s.Name); err != nil {
			return err
		}
		if crashComponent(s.Component) == nil {
			return fmt.Errorf("faults: storm %q: Component must be one of %s, got %q", s.Name, crashNames(false), s.Component)
		}
		if s.RatePerHour <= 0 {
			return fmt.Errorf("faults: storm %q: RatePerHour must be > 0", s.Name)
		}
		switch s.Profile {
		case "", ProfileFlat, ProfileDiurnal:
		default:
			return fmt.Errorf("faults: storm %q: unknown profile %q", s.Name, s.Profile)
		}
		if s.PeriodSeconds < 0 || s.PeakSeconds < 0 || s.MTTRSeconds < 0 {
			return fmt.Errorf("faults: storm %q: negative period/peak/mttr", s.Name)
		}
		if s.PeakFactor != 0 && s.PeakFactor < 1 {
			return fmt.Errorf("faults: storm %q: PeakFactor must be >= 1", s.Name)
		}
		if s.RatePerHour*s.peakFactor() > maxStormRatePerHour {
			return fmt.Errorf("faults: storm %q: peak rate %g/h above cap %g/h", s.Name, s.RatePerHour*s.peakFactor(), float64(maxStormRatePerHour))
		}
	}
	for i := range c.Triggers {
		t := &c.Triggers[i]
		if err := unique("trigger", t.Name); err != nil {
			return err
		}
		if crashClass(t.While) == nil {
			return fmt.Errorf("faults: trigger %q: While must be one of %s, got %q", t.Name, crashNames(true), t.While)
		}
		if t.WhileTarget < 0 {
			return fmt.Errorf("faults: trigger %q: negative WhileTarget", t.Name)
		}
		if crashComponent(t.Component) == nil {
			return fmt.Errorf("faults: trigger %q: Component must be one of %s, got %q", t.Name, crashNames(false), t.Component)
		}
		if t.MTTFSeconds < minMTTF {
			return fmt.Errorf("faults: trigger %q: MTTFSeconds must be >= %g", t.Name, minMTTF)
		}
		if t.MTTRSeconds < 0 {
			return fmt.Errorf("faults: trigger %q: negative MTTRSeconds", t.Name)
		}
		for _, tg := range t.Targets {
			if tg < 0 {
				return fmt.Errorf("faults: trigger %q: negative target index %d", t.Name, tg)
			}
		}
	}
	return nil
}

func (s *Storm) peakFactor() float64 {
	if s.Profile != ProfileDiurnal {
		return 1
	}
	if s.PeakFactor == 0 {
		return 3
	}
	return s.PeakFactor
}

func (s *Storm) period() float64 {
	if s.PeriodSeconds == 0 {
		return 86400
	}
	return s.PeriodSeconds
}

// intensity is the storm rate (occurrences/second) at time t.
func (s *Storm) intensity(t float64) float64 {
	base := s.RatePerHour / 3600
	if s.Profile != ProfileDiurnal {
		return base
	}
	period := s.period()
	peakAt := s.PeakSeconds
	if peakAt == 0 {
		peakAt = period / 2
	}
	// Sinusoid between 1x and PeakFactor x the baseline, peaking at
	// peakAt and bottoming half a period away.
	phase := 2 * math.Pi * (t - peakAt) / period
	mod := 1 + (s.peakFactor()-1)*0.5*(1+math.Cos(phase))
	return base * mod
}

// expandGroups appends shared-fate machine events: each group's one
// outage, replayed for every member machine at identical instants. A
// one-shot outage draws nothing, so groups need no substream.
func (c *Correlation) expandGroups(events []Event, duration sim.Time, tg Targets) []Event {
	for i := range c.Groups {
		g := &c.Groups[i]
		sp, ok := oneShot(g.AtSeconds, g.MTTRSeconds, duration)
		if !ok {
			continue
		}
		for _, m := range g.Machines {
			if m < 0 || m >= tg.Machines {
				continue
			}
			events = append(events, Event{At: sp.down, Kind: MachineDown, Target: m, Origin: g.Name})
			if sp.hasUp {
				events = append(events, Event{At: sp.up, Kind: MachineUp, Target: m, Origin: g.Name})
			}
		}
	}
	return events
}

type outageSpan struct {
	down, up sim.Time
	hasUp    bool
}

// oneShot is the outage that starts at at and is repaired mttr later
// (never when mttr <= 0); ok is false when it starts after the run.
func oneShot(at, mttr float64, duration sim.Time) (sp outageSpan, ok bool) {
	sp.down = sim.Seconds(at)
	if sp.down >= duration {
		return sp, false
	}
	if rec := sp.down + sim.Seconds(mttr); mttr > 0 && rec < duration {
		sp.up, sp.hasUp = rec, true
	}
	return sp, true
}

// drawOutages draws the Component-shaped outage process (one-shot or
// recurring) as spans, consuming draws only from st.
func drawOutages(mttf, mttr, at float64, duration sim.Time, st *rng.Stream) []outageSpan {
	if mttf == 0 {
		if sp, ok := oneShot(at, mttr, duration); ok {
			return []outageSpan{sp}
		}
		return nil
	}
	var spans []outageSpan
	t := sim.Seconds(at)
	if at == 0 {
		t = sim.Seconds(st.Exp(mttf))
	}
	for t < duration {
		sp := outageSpan{down: t}
		if mttr <= 0 {
			return append(spans, sp) // permanent
		}
		t += sim.Seconds(st.Exp(mttr))
		if t < duration {
			sp.up, sp.hasUp = t, true
		}
		spans = append(spans, sp)
		if !sp.hasUp {
			return spans
		}
		t += sim.Seconds(st.Exp(mttf))
	}
	return spans
}

// expandStorms appends storm occurrences via thinning: homogeneous
// candidates at the peak rate, accepted with probability
// intensity(t)/peak; each accepted occurrence draws a victim and, when
// MTTR > 0, a repair delay, all from the storm's own substream.
func (c *Correlation) expandStorms(events []Event, duration sim.Time, tg Targets, src *rng.Source) []Event {
	for i := range c.Storms {
		s := &c.Storms[i]
		d := crashComponent(s.Component)
		if d == nil {
			continue
		}
		n := d.count(tg)
		st := src.Stream("faults-storm-" + s.Name)
		peak := s.RatePerHour * s.peakFactor() / 3600
		t := 0.0
		for {
			t += st.Exp(1 / peak)
			at := sim.Seconds(t)
			if at >= duration {
				break
			}
			accept := st.Float64() < s.intensity(t)/peak
			if n == 0 {
				continue
			}
			v := st.Intn(n)
			var rec sim.Time
			if s.MTTRSeconds > 0 {
				rec = at + sim.Seconds(st.Exp(s.MTTRSeconds))
			}
			if !accept {
				continue
			}
			events = append(events, Event{At: at, Kind: d.down, Target: v, Origin: s.Name})
			if s.MTTRSeconds > 0 && rec < duration {
				events = append(events, Event{At: rec, Kind: d.up, Target: v, Origin: s.Name})
			}
		}
	}
	return events
}

type interval struct{ lo, hi sim.Time }

// downIntervals extracts the condition component's down intervals from
// the (sorted) timeline expanded so far. A down with no matching up is
// open until the end of the run.
func downIntervals(events []Event, down, up Kind, target int, duration sim.Time) []interval {
	var out []interval
	open := sim.Time(-1)
	for _, e := range events {
		if e.Target != target {
			continue
		}
		switch e.Kind {
		case down:
			if open < 0 {
				open = e.At
			}
		case up:
			if open >= 0 {
				out = append(out, interval{open, e.At})
				open = -1
			}
		}
	}
	if open >= 0 {
		out = append(out, interval{open, duration})
	}
	return out
}

func inIntervals(t sim.Time, iv []interval) bool {
	for _, i := range iv {
		if t >= i.lo && t < i.hi {
			return true
		}
	}
	return false
}

// expandTriggers appends conditional-hazard events. Triggers expand
// against the timeline built so far (base + groups + storms), so the
// condition's down intervals are fully known; acceptance is pure
// thinning (deterministic given the candidate time), and each
// (trigger, target) pair has its own substream.
func (c *Correlation) expandTriggers(events []Event, duration sim.Time, tg Targets, src *rng.Source) []Event {
	if len(c.Triggers) == 0 {
		return events
	}
	base := events // condition intervals come from the pre-trigger timeline
	for i := range c.Triggers {
		tr := &c.Triggers[i]
		cond, d := crashClass(tr.While), crashComponent(tr.Component)
		if cond == nil || d == nil {
			continue
		}
		n := d.count(tg)
		armed := downIntervals(base, cond.down, cond.up, tr.WhileTarget, duration)
		for _, v := range orAll(tr.Targets, n) {
			st := src.Stream(fmt.Sprintf("faults-trigger-%s-%d", tr.Name, v))
			t := 0.0
			for {
				t += st.Exp(tr.MTTFSeconds)
				at := sim.Seconds(t)
				if at >= duration {
					break
				}
				var rec sim.Time
				if tr.MTTRSeconds > 0 {
					rec = at + sim.Seconds(st.Exp(tr.MTTRSeconds))
				}
				// Thinning: only candidates landing inside an armed
				// interval survive; the draw sequence is unaffected.
				if !inIntervals(at, armed) || v < 0 || v >= n {
					continue
				}
				events = append(events, Event{At: at, Kind: d.down, Target: v, Origin: tr.Name})
				if tr.MTTRSeconds > 0 && rec < duration {
					events = append(events, Event{At: rec, Kind: d.up, Target: v, Origin: tr.Name})
				}
			}
		}
	}
	return events
}

func sortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		if events[i].Kind != events[j].Kind {
			return events[i].Kind < events[j].Kind
		}
		return events[i].Target < events[j].Target
	})
}
