// Package faults provides seed-deterministic fault injection for the
// simulated cluster: a validated, JSON round-trippable schedule of
// crash/restart and degraded-mode events, expanded into a concrete
// timeline from named rng substreams so a fixed seed yields a
// byte-identical fault sequence at any worker count.
//
// The package deliberately knows nothing about tiers: it produces a
// sorted []Event that internal/tiers applies to live servers. The
// reaction side (timeouts, retries, failover, breakers) is configured
// here too, via ResilienceSpec, so both halves of the robustness story
// ride on experiment.Config and round-trip through JSON.
package faults

import (
	"fmt"

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
// carries the degraded-mode magnitude: CPU slowdown factor for
// SlowNode (> 1), added replica lag in seconds for LagSpike, added
// cross-machine path delay in seconds for PathDelay.
type Component struct {
	MTTFSeconds float64 `json:"mttf_seconds,omitempty"`
	MTTRSeconds float64 `json:"mttr_seconds,omitempty"`
	AtSeconds   float64 `json:"at_seconds,omitempty"`
	Targets     []int   `json:"targets,omitempty"`
	Value       float64 `json:"value,omitempty"`
}

// Schedule is the full fault configuration carried by
// experiment.Config. Every field is optional; a zero Schedule injects
// nothing. The schedule is expanded deterministically by Expand.
type Schedule struct {
	// WebCrash crashes and restarts web replicas.
	WebCrash *Component `json:"web_crash,omitempty"`
	// DBCrash crashes and restarts DB instances (target 0 is the
	// primary; 1..R are read replicas).
	DBCrash *Component `json:"db_crash,omitempty"`
	// MachineCrash takes down whole machines: every VM placed on the
	// target machine crashes and recovers together.
	MachineCrash *Component `json:"machine_crash,omitempty"`
	// SlowNode multiplies CPU service demand on the target machine's
	// co-placed servers by Value ("limpware"; Value > 1).
	SlowNode *Component `json:"slow_node,omitempty"`
	// LagSpike adds Value seconds to the DB replication lag while
	// active (single global target).
	LagSpike *Component `json:"lag_spike,omitempty"`
	// PathDelay adds Value seconds to every cross-machine transfer
	// while active (single global target).
	PathDelay *Component `json:"path_delay,omitempty"`
	// Correlation layers coupled failure modes (shared-fate groups,
	// storms, conditional triggers) on top of the independent
	// components above; nil adds nothing.
	Correlation *Correlation `json:"correlation,omitempty"`
	// Hazard couples crashes to load at run time: a per-window crash
	// probability for overloaded web replicas, drawn in-run from a
	// dedicated substream (it cannot be pre-expanded); nil disables.
	Hazard *HazardSpec `json:"hazard,omitempty"`
	// CacheCrash crashes and restarts the cache node (a restart is a
	// cold cache); QueueCrash crashes and restarts the write-behind
	// queue node (the journaled backlog survives, so recovery shows a
	// lag spike). Both are single-instance tiers: target 0.
	CacheCrash *Component `json:"cache_crash,omitempty"`
	QueueCrash *Component `json:"queue_crash,omitempty"`
}

// Empty reports whether the schedule injects no faults at all.
func (s *Schedule) Empty() bool {
	return s == nil || (s.WebCrash == nil && s.DBCrash == nil &&
		s.MachineCrash == nil && s.SlowNode == nil &&
		s.LagSpike == nil && s.PathDelay == nil &&
		s.CacheCrash == nil && s.QueueCrash == nil &&
		s.Correlation.Empty() && s.Hazard == nil)
}

func (c *Component) validate(name string, needValue bool, minValue float64) error {
	if c.MTTFSeconds < 0 || c.MTTRSeconds < 0 || c.AtSeconds < 0 {
		return fmt.Errorf("faults: %s: negative mttf/mttr/at", name)
	}
	if c.MTTFSeconds == 0 && c.AtSeconds == 0 {
		return fmt.Errorf("faults: %s: need mttf_seconds > 0 (recurring) or at_seconds > 0 (one-shot)", name)
	}
	if c.MTTFSeconds > 0 && c.MTTFSeconds < minMTTF {
		return fmt.Errorf("faults: %s: mttf_seconds below %g would explode the timeline", name, minMTTF)
	}
	for _, t := range c.Targets {
		if t < 0 {
			return fmt.Errorf("faults: %s: negative target index %d", name, t)
		}
	}
	if needValue && c.Value <= minValue {
		return fmt.Errorf("faults: %s: value must be > %g, got %g", name, minValue, c.Value)
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
	type entry struct {
		c         *Component
		name      string
		needValue bool
		minValue  float64
	}
	for _, e := range []entry{
		{s.WebCrash, "web_crash", false, 0},
		{s.DBCrash, "db_crash", false, 0},
		{s.MachineCrash, "machine_crash", false, 0},
		{s.SlowNode, "slow_node", true, 1},
		{s.LagSpike, "lag_spike", true, 0},
		{s.PathDelay, "path_delay", true, 0},
		{s.CacheCrash, "cache_crash", false, 0},
		{s.QueueCrash, "queue_crash", false, 0},
	} {
		if e.c == nil {
			continue
		}
		if err := e.c.validate(e.name, e.needValue, e.minValue); err != nil {
			return err
		}
	}
	if err := s.Correlation.Validate(); err != nil {
		return err
	}
	return s.Hazard.Validate()
}

// Kind identifies a timeline event type. Down/Start events flip a
// component into its failed/degraded state; Up/End events restore it.
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
	LagStart
	LagEnd
	DelayStart
	DelayEnd
	CacheDown
	CacheUp
	QueueDown
	QueueUp
)

var kindNames = [...]string{
	WebDown: "web-down", WebUp: "web-up",
	DBDown: "db-down", DBUp: "db-up",
	MachineDown: "machine-down", MachineUp: "machine-up",
	SlowStart: "slow-start", SlowEnd: "slow-end",
	LagStart: "lag-start", LagEnd: "lag-end",
	DelayStart: "delay-start", DelayEnd: "delay-end",
	CacheDown: "cache-down", CacheUp: "cache-up",
	QueueDown: "queue-down", QueueUp: "queue-up",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one entry in the expanded fault timeline.
type Event struct {
	At     sim.Time `json:"at"`
	Kind   Kind     `json:"kind"`
	Target int      `json:"target"`
	// Value carries the degraded-mode magnitude for Slow/Lag/Delay
	// start events (same meaning as Component.Value); 0 otherwise.
	Value float64 `json:"value,omitempty"`
	// Origin names the correlation feature (group, storm, or trigger)
	// that produced the event; empty for base-component events.
	Origin string `json:"origin,omitempty"`
}

// Targets gives the instance counts a schedule expands against.
type Targets struct {
	Webs     int
	DBs      int
	Machines int
	// Caches/Queues are 1 when the corresponding tier is deployed
	// (single-instance tiers), 0 otherwise.
	Caches int
	Queues int
}

// count reports how many instances a down kind can target; lag spikes
// and path delays have one.
func (tg Targets) count(down Kind) int {
	switch down {
	case WebDown:
		return tg.Webs
	case DBDown:
		return tg.DBs
	case MachineDown, SlowStart:
		return tg.Machines
	case LagStart, DelayStart:
		return 1
	case CacheDown:
		return tg.Caches
	case QueueDown:
		return tg.Queues
	}
	return 0
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
	for _, sp := range []struct {
		c        *Component
		name     string
		down, up Kind
	}{
		{s.WebCrash, "web_crash", WebDown, WebUp},
		{s.DBCrash, "db_crash", DBDown, DBUp},
		{s.MachineCrash, "machine_crash", MachineDown, MachineUp},
		{s.SlowNode, "slow_node", SlowStart, SlowEnd},
		{s.LagSpike, "lag_spike", LagStart, LagEnd},
		{s.PathDelay, "path_delay", DelayStart, DelayEnd},
		{s.CacheCrash, "cache_crash", CacheDown, CacheUp},
		{s.QueueCrash, "queue_crash", QueueDown, QueueUp},
	} {
		if sp.c == nil {
			continue
		}
		var value float64
		switch sp.down {
		case SlowStart, LagStart, DelayStart:
			value = sp.c.Value
		}
		n := tg.count(sp.down)
		for _, t := range orAll(sp.c.Targets, n) {
			if t < 0 || t >= n {
				continue // schedule written for a larger topology
			}
			st := src.Stream(fmt.Sprintf("faults-%s-%d", sp.name, t))
			for _, o := range drawOutages(sp.c.MTTFSeconds, sp.c.MTTRSeconds, sp.c.AtSeconds, duration, st) {
				events = append(events, Event{At: o.down, Kind: sp.down, Target: t, Value: value})
				if o.hasUp {
					events = append(events, Event{At: o.up, Kind: sp.up, Target: t})
				}
			}
		}
	}
	if c := s.Correlation; !c.Empty() {
		events = c.expandGroups(events, duration, tg, src)
		events = c.expandStorms(events, duration, tg, src)
		// Triggers thin against the condition's down intervals, so the
		// pre-trigger timeline must be ordered first.
		sortEvents(events)
		events = c.expandTriggers(events, duration, tg, src)
	}
	sortEvents(events)
	return events
}
