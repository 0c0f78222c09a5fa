// Package faults provides seed-deterministic fault injection for the
// simulated cluster: a validated schedule of crash/restart and
// degraded-mode events, expanded into a concrete timeline from named
// rng substreams so a fixed seed yields a byte-identical fault
// sequence at any worker count.
//
// The package deliberately knows nothing about tiers: it produces a
// sorted []Event that internal/tiers applies to live servers. The
// reaction side (timeouts, retries, failover, breakers) is configured
// here too, via ResilienceSpec, so both halves of the robustness story
// ride on experiment.Config.
package faults

import (
	"fmt"
	"strings"

	"vwchar/internal/rng"
	"vwchar/internal/sim"
)

// Component describes one fault class in the schedule. Two shapes are
// supported:
//
//   - Recurring: MTTFSeconds > 0. Failures arrive with exponentially
//     distributed inter-failure times (mean MTTF); each failure lasts
//     an exponentially distributed repair time (mean MTTR). MTTR <= 0
//     makes every failure permanent.
//   - One-shot: MTTFSeconds == 0 and AtSeconds > 0. A single failure
//     at exactly AtSeconds, repaired after exactly MTTRSeconds
//     (permanent when MTTRSeconds <= 0). AtSeconds also offsets the
//     first failure of a recurring component when both are set.
//
// Targets selects which instances the component applies to (web
// replica indices, DB instance indices where 0 is the primary, or
// machine indices); empty means all instances of that class. Value
// carries the degraded-mode magnitude, which only SlowNode has: its CPU
// slowdown factor (> 1).
type Component struct {
	MTTFSeconds float64
	MTTRSeconds float64
	AtSeconds   float64
	Targets     []int
	Value       float64
}

// Schedule is the full fault configuration carried by
// experiment.Config. Every field is optional; a zero Schedule injects
// nothing. The schedule is expanded deterministically by Expand.
type Schedule struct {
	// WebCrash crashes and restarts web replicas.
	WebCrash *Component
	// DBCrash crashes and restarts DB instances (target 0 is the
	// primary; 1..R are read replicas).
	DBCrash *Component
	// MachineCrash takes down whole machines: every VM placed on the
	// target machine crashes and recovers together.
	MachineCrash *Component
	// SlowNode multiplies CPU service demand on the target machine's
	// co-placed servers by Value ("limpware"; Value > 1).
	SlowNode *Component
	// Correlation layers coupled failure modes (shared-fate groups,
	// storms, conditional triggers) on top of the independent
	// components above; nil adds nothing.
	Correlation *Correlation
	// Hazard couples crashes to load at run time: a per-window crash
	// probability for overloaded web replicas, drawn in-run from a
	// dedicated substream (it cannot be pre-expanded); nil disables.
	Hazard *HazardSpec
	// CacheCrash crashes and restarts the cache node (a restart is a
	// cold cache). The cache is a single-instance tier: target 0.
	CacheCrash *Component
}

// componentDef is one row of the components table: what validation,
// expansion and the correlation layer know of one Schedule component.
type componentDef struct {
	// name labels the component's substreams ("faults-<name>-<target>")
	// and is the value of Storm.Component and Trigger.Component.
	name string
	// class is the Trigger.While value of the web, db and machine
	// crashes, the classes storms and triggers strike; "" otherwise.
	class string
	// down and up are the kinds of the component's start and end events.
	down, up Kind
	// Start events of a valued component carry Component.Value, a
	// factor that must exceed 1.
	valued bool
	// of reads the component from a schedule; count is how many
	// instances it can target.
	of    func(*Schedule) *Component
	count func(Targets) int
}

// components lists the Schedule's components once, in field order.
var components = [...]componentDef{
	{name: "web_crash", class: ClassWeb, down: WebDown, up: WebUp,
		of:    func(s *Schedule) *Component { return s.WebCrash },
		count: func(tg Targets) int { return tg.Webs }},
	{name: "db_crash", class: ClassDB, down: DBDown, up: DBUp,
		of:    func(s *Schedule) *Component { return s.DBCrash },
		count: func(tg Targets) int { return tg.DBs }},
	{name: "machine_crash", class: ClassMachine, down: MachineDown, up: MachineUp,
		of:    func(s *Schedule) *Component { return s.MachineCrash },
		count: func(tg Targets) int { return tg.Machines }},
	{name: "slow_node", down: SlowStart, up: SlowEnd, valued: true,
		of:    func(s *Schedule) *Component { return s.SlowNode },
		count: func(tg Targets) int { return tg.Machines }},
	{name: "cache_crash", down: CacheDown, up: CacheUp,
		of:    func(s *Schedule) *Component { return s.CacheCrash },
		count: func(tg Targets) int { return tg.Caches }},
}

// crash returns the web, db or machine crash that match selects, or nil.
func crash(match func(*componentDef) bool) *componentDef {
	for i := range components {
		if d := &components[i]; d.class != "" && match(d) {
			return d
		}
	}
	return nil
}

// crashNames lists the web, db and machine crashes by name, or by class,
// for error messages.
func crashNames(byClass bool) string {
	var names []string
	for _, d := range components {
		switch {
		case d.class == "":
		case byClass:
			names = append(names, d.class)
		default:
			names = append(names, d.name)
		}
	}
	return strings.Join(names, ", ")
}

// Empty reports whether the schedule injects no faults at all.
func (s *Schedule) Empty() bool {
	if s == nil {
		return true
	}
	for _, d := range components {
		if d.of(s) != nil {
			return false
		}
	}
	return s.Correlation.Empty() && s.Hazard == nil
}

func (c *Component) validate(d *componentDef) error {
	if c.MTTFSeconds < 0 || c.MTTRSeconds < 0 || c.AtSeconds < 0 {
		return fmt.Errorf("faults: %s: negative mttf/mttr/at", d.name)
	}
	if c.MTTFSeconds == 0 && c.AtSeconds == 0 {
		return fmt.Errorf("faults: %s: need MTTFSeconds > 0 (recurring) or AtSeconds > 0 (one-shot)", d.name)
	}
	if c.MTTFSeconds > 0 && c.MTTFSeconds < minMTTF {
		return fmt.Errorf("faults: %s: MTTFSeconds below %g would explode the timeline", d.name, minMTTF)
	}
	for _, t := range c.Targets {
		if t < 0 {
			return fmt.Errorf("faults: %s: negative target index %d", d.name, t)
		}
	}
	if d.valued && c.Value <= 1 {
		return fmt.Errorf("faults: %s: Value must be > 1, got %g", d.name, c.Value)
	}
	return nil
}

// Validate checks the schedule for internal consistency. It does not
// check target indices against a topology (out-of-range targets are
// skipped at expansion time so one schedule can apply to several
// topologies).
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i := range components {
		d := &components[i]
		if c := d.of(s); c != nil {
			if err := c.validate(d); err != nil {
				return err
			}
		}
	}
	if err := s.Correlation.Validate(); err != nil {
		return err
	}
	return s.Hazard.Validate()
}

// Kind identifies a timeline event type. Down/Start events flip a
// component into its failed/degraded state; Up/End events restore it.
// The order of the kinds breaks ties between events at one instant.
type Kind uint8

const (
	WebDown Kind = iota
	WebUp
	DBDown
	DBUp
	MachineDown
	MachineUp
	SlowStart
	SlowEnd
	CacheDown
	CacheUp
)

var kindNames = [...]string{
	WebDown: "web-down", WebUp: "web-up",
	DBDown: "db-down", DBUp: "db-up",
	MachineDown: "machine-down", MachineUp: "machine-up",
	SlowStart: "slow-start", SlowEnd: "slow-end",
	CacheDown: "cache-down", CacheUp: "cache-up",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ClassDown reports whether k is the down kind of a web, db or machine
// crash. The slow-node mode and the single-instance cache crash are
// not.
func (k Kind) ClassDown() bool {
	return crash(func(d *componentDef) bool { return d.down == k }) != nil
}

// ClassUp reports whether k is the up kind of a web, db or machine
// crash, and returns the down kind it ends.
func (k Kind) ClassUp() (down Kind, ok bool) {
	if d := crash(func(d *componentDef) bool { return d.up == k }); d != nil {
		return d.down, true
	}
	return 0, false
}

// Event is one entry in the expanded fault timeline.
type Event struct {
	At     sim.Time
	Kind   Kind
	Target int
	// Value carries the slowdown factor of SlowStart events (same
	// meaning as Component.Value); 0 otherwise.
	Value float64
	// Origin names the correlation feature (group, storm, or trigger)
	// that produced the event; empty for base-component events.
	Origin string
}

// Targets gives the instance counts a schedule expands against.
type Targets struct {
	Webs     int
	DBs      int
	Machines int
	// Caches is 1 when the single-instance cache tier is deployed, 0
	// otherwise.
	Caches int
}

// orAll returns targets, or every instance 0..n-1 when targets is empty.
func orAll(targets []int, n int) []int {
	if len(targets) > 0 {
		return targets
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// Expand turns the schedule into a concrete, sorted event timeline
// covering [0, duration). Each (component, target) pair draws from its
// own named substream of src, so the timeline is a pure function of
// the root seed: adding a component never perturbs another's draws,
// and the expansion is identical at any worker count.
func (s *Schedule) Expand(duration sim.Time, tg Targets, src *rng.Source) []Event {
	if s.Empty() {
		return nil
	}
	var events []Event
	for i := range components {
		d := &components[i]
		c := d.of(s)
		if c == nil {
			continue
		}
		var value float64
		if d.valued {
			value = c.Value
		}
		n := d.count(tg)
		for _, t := range orAll(c.Targets, n) {
			if t < 0 || t >= n {
				continue // schedule written for a larger topology
			}
			st := src.Stream(fmt.Sprintf("faults-%s-%d", d.name, t))
			for _, o := range drawOutages(c.MTTFSeconds, c.MTTRSeconds, c.AtSeconds, duration, st) {
				events = append(events, Event{At: o.down, Kind: d.down, Target: t, Value: value})
				if o.hasUp {
					events = append(events, Event{At: o.up, Kind: d.up, Target: t})
				}
			}
		}
	}
	if c := s.Correlation; !c.Empty() {
		events = c.expandGroups(events, duration, tg)
		events = c.expandStorms(events, duration, tg, src)
		// Triggers thin against the condition's down intervals, so the
		// pre-trigger timeline must be ordered first.
		sortEvents(events)
		events = c.expandTriggers(events, duration, tg, src)
	}
	sortEvents(events)
	return events
}
