package faults

import (
	"reflect"
	"testing"

	"vwchar/internal/rng"
	"vwchar/internal/sim"
)

// TestCorrelationValidate pins the correlation validator's rejections.
func TestCorrelationValidate(t *testing.T) {
	bad := []Correlation{
		{Groups: []SharedFateGroup{{Machines: []int{0}, AtSeconds: 1}}},                                                           // no name
		{Groups: []SharedFateGroup{{Name: "g"}}},                                                                                  // no machines
		{Groups: []SharedFateGroup{{Name: "g", Machines: []int{0}}}},                                                              // no at
		{Groups: []SharedFateGroup{{Name: "g", Machines: []int{0}, AtSeconds: 1, MTTRSeconds: -1}}},                               // negative mttr
		{Groups: []SharedFateGroup{{Name: "g", Machines: []int{0}, AtSeconds: 1}, {Name: "g", Machines: []int{1}, AtSeconds: 2}}}, // dup name
		{Storms: []Storm{{Name: "s", Component: "nope", RatePerHour: 1}}},                                                         // bad class
		{Storms: []Storm{{Name: "s", Component: "web_crash"}}},                                                                    // rate 0
		{Storms: []Storm{{Name: "s", Component: "web_crash", RatePerHour: 1, Profile: "square"}}},                                 // bad profile
		{Storms: []Storm{{Name: "s", Component: "web_crash", RatePerHour: 1e9, Profile: ProfileDiurnal}}},                         // over the cap
		{Triggers: []Trigger{{Name: "t", While: "rack", Component: "web_crash", MTTFSeconds: 10}}},                                // bad condition
		{Triggers: []Trigger{{Name: "t", While: ClassDB, Component: "web_crash"}}},                                                // mttf 0
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid correlation accepted: %+v", i, c)
		}
	}
	good := Correlation{
		Groups:   []SharedFateGroup{{Name: "rack0", Machines: []int{0, 1}, AtSeconds: 100, MTTRSeconds: 60}},
		Storms:   []Storm{{Name: "peak", Component: "web_crash", RatePerHour: 30, Profile: ProfileDiurnal, MTTRSeconds: 45}},
		Triggers: []Trigger{{Name: "pair", While: ClassWeb, Component: "web_crash", MTTFSeconds: 30, MTTRSeconds: 20}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid correlation rejected: %v", err)
	}
}

// TestGroupSharedFate pins the tentpole contract: every member machine
// of a shared-fate group goes down and recovers at the identical
// instants, with the group's name as origin.
func TestGroupSharedFate(t *testing.T) {
	s := Schedule{Correlation: &Correlation{
		Groups: []SharedFateGroup{{Name: "rack0", Machines: []int{0, 2}, AtSeconds: 100, MTTRSeconds: 60}},
	}}
	ev := s.Expand(400*sim.Second, Targets{Machines: 3}, rng.NewSource(1))
	byKind := map[Kind][]Event{}
	for _, e := range ev {
		if e.Origin != "rack0" {
			t.Fatalf("unexpected origin on %+v", e)
		}
		byKind[e.Kind] = append(byKind[e.Kind], e)
	}
	downs, ups := byKind[MachineDown], byKind[MachineUp]
	if len(downs) != 2 || len(ups) != 2 {
		t.Fatalf("group events = %d down / %d up, want 2/2: %+v", len(downs), len(ups), ev)
	}
	if downs[0].At != downs[1].At || ups[0].At != ups[1].At {
		t.Fatalf("shared fate broken: members fail at different instants: %+v", ev)
	}
	if downs[0].At != 100*sim.Second {
		t.Fatalf("one-shot at = %v, want 100s", downs[0].At)
	}
	if got := map[int]bool{downs[0].Target: true, downs[1].Target: true}; !got[0] || !got[2] {
		t.Fatalf("wrong members hit: %+v", downs)
	}
}

// TestStormExpansion pins the storm process: a flat storm inside the
// horizon yields matched down/up pairs on in-range victims, all carrying
// the storm's origin, and is deterministic in the seed.
func TestStormExpansion(t *testing.T) {
	s := Schedule{Correlation: &Correlation{
		Storms: []Storm{{Name: "squall", Component: "web_crash", RatePerHour: 3600, MTTRSeconds: 10}},
	}}
	tg := Targets{Webs: 3}
	ev := s.Expand(600*sim.Second, tg, rng.NewSource(3))
	if len(ev) == 0 {
		t.Fatal("an hour-rate storm over 600s produced nothing")
	}
	downs := 0
	for _, e := range ev {
		if e.Origin != "squall" {
			t.Fatalf("unexpected origin on %+v", e)
		}
		if e.Target < 0 || e.Target >= tg.Webs {
			t.Fatalf("victim out of range: %+v", e)
		}
		if e.Kind == WebDown {
			downs++
		}
	}
	if downs == 0 {
		t.Fatal("storm produced no down events")
	}
	ev2 := s.Expand(600*sim.Second, tg, rng.NewSource(3))
	if !reflect.DeepEqual(ev, ev2) {
		t.Fatal("storm expansion not deterministic")
	}
}

// TestTriggerThinning pins the conditional hazard: trigger events land
// only inside the condition component's down intervals.
func TestTriggerThinning(t *testing.T) {
	s := Schedule{
		DBCrash: &Component{AtSeconds: 100, MTTRSeconds: 200, Targets: []int{0}},
		Correlation: &Correlation{
			Triggers: []Trigger{{
				Name: "overload", While: ClassDB, WhileTarget: 0,
				Component: "web_crash", MTTFSeconds: 5, MTTRSeconds: 2,
			}},
		},
	}
	ev := s.Expand(600*sim.Second, Targets{Webs: 2, DBs: 1}, rng.NewSource(9))
	fired := 0
	for _, e := range ev {
		if e.Origin != "overload" || e.Kind != WebDown {
			continue
		}
		fired++
		if e.At < 100*sim.Second || e.At >= 300*sim.Second {
			t.Fatalf("trigger fired outside the condition's down interval: %+v", e)
		}
	}
	// MTTF 5s over a 200s armed interval: many firings expected.
	if fired < 5 {
		t.Fatalf("trigger fired %d times over a 200s armed interval at MTTF 5s", fired)
	}
}

// TestCorrelationSubstreamIsolation is the determinism satellite:
// adding a correlation feature must not perturb the base component
// events, and adding a second storm must not perturb the first.
func TestCorrelationSubstreamIsolation(t *testing.T) {
	const dur = 600 * sim.Second
	tg := Targets{Webs: 3, DBs: 2, Machines: 2}
	filter := func(ev []Event, origin string) []Event {
		var out []Event
		for _, e := range ev {
			if e.Origin == origin {
				out = append(out, e)
			}
		}
		return out
	}

	base := Schedule{
		WebCrash: &Component{MTTFSeconds: 120, MTTRSeconds: 30},
		DBCrash:  &Component{AtSeconds: 200, MTTRSeconds: 50, Targets: []int{0}},
	}
	plain := base.Expand(dur, tg, rng.NewSource(42))

	withCorr := base
	withCorr.Correlation = &Correlation{
		Groups: []SharedFateGroup{{Name: "rack0", Machines: []int{0, 1}, AtSeconds: 150, MTTRSeconds: 40}},
		Storms: []Storm{{Name: "a", Component: "web_crash", RatePerHour: 120, MTTRSeconds: 20}},
	}
	mixed := withCorr.Expand(dur, tg, rng.NewSource(42))
	if got, want := filter(mixed, ""), filter(plain, ""); !reflect.DeepEqual(got, want) {
		t.Fatalf("correlation perturbed the base component events:\nwith: %+v\nwithout: %+v", got, want)
	}

	withB := withCorr
	withB.Correlation = &Correlation{
		Groups: withCorr.Correlation.Groups,
		Storms: append([]Storm{}, withCorr.Correlation.Storms[0],
			Storm{Name: "b", Component: "db_crash", RatePerHour: 60, MTTRSeconds: 20}),
	}
	both := withB.Expand(dur, tg, rng.NewSource(42))
	if got, want := filter(both, "a"), filter(mixed, "a"); !reflect.DeepEqual(got, want) {
		t.Fatalf("adding storm b perturbed storm a's events")
	}
	if got, want := filter(both, "rack0"), filter(mixed, "rack0"); !reflect.DeepEqual(got, want) {
		t.Fatalf("adding storm b perturbed the group's events")
	}
	if len(filter(both, "b")) == 0 {
		t.Fatal("storm b vacuous")
	}
}

// TestHazardBrownoutValidate pins the in-run specs' validators.
func TestHazardBrownoutValidate(t *testing.T) {
	badH := []HazardSpec{
		{UtilThreshold: 0, CrashProb: 0.1},
		{UtilThreshold: 2, CrashProb: 0},
		{UtilThreshold: 2, CrashProb: 1.5},
		{UtilThreshold: 2, CrashProb: 0.1, MTTRSeconds: -1},
	}
	for i, h := range badH {
		if err := h.Validate(); err == nil {
			t.Errorf("hazard case %d accepted: %+v", i, h)
		}
	}
	if err := (&HazardSpec{UtilThreshold: 4, CrashProb: 0.05, MTTRSeconds: 60}).Validate(); err != nil {
		t.Fatalf("valid hazard rejected: %v", err)
	}
	badB := []BrownoutSpec{
		{EnterUtil: 0},
		{EnterUtil: 2, ExitUtil: 3},
		{EnterUtil: 2, DropFraction: 1.5},
		{EnterUtil: 2, MaxLevel: -1},
	}
	for i, b := range badB {
		if err := b.Validate(); err == nil {
			t.Errorf("brownout case %d accepted: %+v", i, b)
		}
	}
	b := (&BrownoutSpec{EnterUtil: 3}).WithDefaults()
	if b.ExitUtil != 1.5 || b.DropFraction != 0.5 || b.MaxLevel != 2 {
		t.Fatalf("brownout defaults wrong: %+v", b)
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("defaulted brownout rejected: %v", err)
	}
}
