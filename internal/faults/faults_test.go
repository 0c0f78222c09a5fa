package faults

import (
	"encoding/json"
	"reflect"
	"testing"

	"vwchar/internal/rng"
	"vwchar/internal/sim"
)

func TestScheduleValidate(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
		ok   bool
	}{
		{"empty", Schedule{}, true},
		{"recurring", Schedule{WebCrash: &Component{MTTFSeconds: 100, MTTRSeconds: 10}}, true},
		{"one-shot", Schedule{DBCrash: &Component{AtSeconds: 30}}, true},
		{"no-times", Schedule{WebCrash: &Component{}}, false},
		{"negative-mttf", Schedule{WebCrash: &Component{MTTFSeconds: -1}}, false},
		{"negative-target", Schedule{WebCrash: &Component{AtSeconds: 5, Targets: []int{-1}}}, false},
		{"slow-needs-factor", Schedule{SlowNode: &Component{AtSeconds: 5}}, false},
		{"slow-factor-one", Schedule{SlowNode: &Component{AtSeconds: 5, Value: 1}}, false},
		{"slow-ok", Schedule{SlowNode: &Component{AtSeconds: 5, Value: 2.5}}, true},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestResilienceValidateAndDefaults(t *testing.T) {
	var nilSpec *ResilienceSpec
	if err := nilSpec.Validate(); err != nil {
		t.Fatalf("nil spec: %v", err)
	}
	bad := []ResilienceSpec{
		{TimeoutMillis: -1},
		{Retries: -1},
		{RetryBudget: -0.5},
		{Breaker: &BreakerSpec{ErrorThreshold: 0}},
		{Breaker: &BreakerSpec{ErrorThreshold: 1.5}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad[%d]: want error", i)
		}
	}
	// High retry budgets are deliberately legal (retry-storm experiments).
	storm := ResilienceSpec{Retries: 3, RetryBudget: 4}
	if err := storm.Validate(); err != nil {
		t.Fatalf("storm budget: %v", err)
	}
	d := (ResilienceSpec{Retries: 2}).WithDefaults()
	if d.BackoffMillis != 50 || d.RetryBudget != 0.2 {
		t.Fatalf("retry defaults: %+v", d)
	}
	if d.HealthEverySeconds != 1 || d.EjectAfterChecks != 3 || d.FailoverDetectSeconds != 5 {
		t.Fatalf("health defaults: %+v", d)
	}
	b := (ResilienceSpec{Breaker: &BreakerSpec{ErrorThreshold: 0.5}}).WithDefaults()
	if b.Breaker.WindowRequests != 64 || b.Breaker.OpenMillis != 1000 {
		t.Fatalf("breaker defaults: %+v", b.Breaker)
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := Schedule{
		WebCrash: &Component{MTTFSeconds: 300, MTTRSeconds: 30, Targets: []int{1, 2}},
		DBCrash:  &Component{AtSeconds: 120},
		SlowNode: &Component{AtSeconds: 60, MTTRSeconds: 90, Value: 2},
	}
	raw, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var got Schedule
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", s, got)
	}
}

func TestExpandOneShot(t *testing.T) {
	s := Schedule{DBCrash: &Component{AtSeconds: 10, MTTRSeconds: 5, Targets: []int{0}}}
	ev := s.Expand(sim.Seconds(60), Targets{Webs: 2, DBs: 2, Machines: 1}, rng.NewSource(1))
	want := []Event{
		{At: sim.Seconds(10), Kind: DBDown, Target: 0},
		{At: sim.Seconds(15), Kind: DBUp, Target: 0},
	}
	if !reflect.DeepEqual(ev, want) {
		t.Fatalf("got %+v want %+v", ev, want)
	}
	// Permanent one-shot: no recovery event.
	s = Schedule{DBCrash: &Component{AtSeconds: 10, Targets: []int{0}}}
	ev = s.Expand(sim.Seconds(60), Targets{DBs: 2}, rng.NewSource(1))
	if len(ev) != 1 || ev[0].Kind != DBDown {
		t.Fatalf("permanent: got %+v", ev)
	}
}

func TestExpandDeterministicAndSorted(t *testing.T) {
	s := Schedule{
		WebCrash: &Component{MTTFSeconds: 40, MTTRSeconds: 8},
		SlowNode: &Component{MTTFSeconds: 70, MTTRSeconds: 20, Value: 2},
	}
	tg := Targets{Webs: 3, DBs: 2, Machines: 2}
	a := s.Expand(sim.Seconds(600), tg, rng.NewSource(42))
	b := s.Expand(sim.Seconds(600), tg, rng.NewSource(42))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("expansion not deterministic for a fixed seed")
	}
	if len(a) == 0 {
		t.Fatal("vacuous: no events expanded")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("events not sorted at %d: %+v after %+v", i, a[i], a[i-1])
		}
	}
	// Down/Start events carry the component value.
	sawSlow := false
	for _, e := range a {
		if e.Kind == SlowStart {
			sawSlow = true
			if e.Value != 2 {
				t.Fatalf("slow-start value = %g, want 2", e.Value)
			}
		}
	}
	if !sawSlow {
		t.Fatal("no slow-start events in 600s with MTTF 70s")
	}
	// Adding an unrelated component must not perturb existing draws
	// (per-target named substreams).
	s2 := s
	s2.DBCrash = &Component{MTTFSeconds: 90, MTTRSeconds: 15}
	c := s2.Expand(sim.Seconds(600), tg, rng.NewSource(42))
	var filtered []Event
	for _, e := range c {
		if e.Kind != DBDown && e.Kind != DBUp {
			filtered = append(filtered, e)
		}
	}
	if !reflect.DeepEqual(a, filtered) {
		t.Fatal("adding db_crash perturbed other components' timelines")
	}
}

func TestExpandSkipsOutOfRangeTargets(t *testing.T) {
	s := Schedule{WebCrash: &Component{AtSeconds: 5, Targets: []int{0, 7}}}
	ev := s.Expand(sim.Seconds(60), Targets{Webs: 2}, rng.NewSource(1))
	if len(ev) != 1 || ev[0].Target != 0 {
		t.Fatalf("want only target 0, got %+v", ev)
	}
}

func TestCatalog(t *testing.T) {
	names := ScenarioNames()
	if len(names) < 3 {
		t.Fatalf("catalog too small: %v", names)
	}
	for _, n := range names {
		sc, err := ScenarioByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Faults.Validate(); err != nil {
			t.Errorf("%s: fault schedule invalid: %v", n, err)
		}
		if err := sc.Resilience.Validate(); err != nil {
			t.Errorf("%s: resilience invalid: %v", n, err)
		}
		if sc.Faults.Empty() {
			t.Errorf("%s: empty fault schedule", n)
		}
	}
	if _, err := ScenarioByName("nope"); err == nil {
		t.Fatal("want error for unknown scenario")
	}
}

// TestComponentTableFollowsSchedule checks that the components table
// reads every *Component field of Schedule exactly once, in field order,
// and gives every component its own down and up kinds, so a new
// component plugs in by one row.
func TestComponentTableFollowsSchedule(t *testing.T) {
	typ := reflect.TypeOf(Schedule{})
	row := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type != reflect.TypeOf(&Component{}) {
			continue
		}
		var s Schedule
		want := &Component{}
		reflect.ValueOf(&s).Elem().Field(i).Set(reflect.ValueOf(want))
		var readers []int
		for j := range components {
			if c := components[j].of(&s); c != nil {
				if c != want {
					t.Errorf("row %d (%s) returned a component the schedule does not hold", j, components[j].name)
				}
				readers = append(readers, j)
			}
		}
		if len(readers) != 1 || readers[0] != row {
			t.Errorf("field %s is read by rows %v, want row %d alone", f.Name, readers, row)
		}
		row++
	}
	if row != len(components) {
		t.Errorf("Schedule has %d component fields, the table %d rows", row, len(components))
	}
	kinds := map[Kind]string{}
	for _, d := range components {
		for _, k := range []Kind{d.down, d.up} {
			if other, dup := kinds[k]; dup {
				t.Errorf("kind %v belongs to both %s and %s", k, other, d.name)
			}
			kinds[k] = d.name
		}
	}
}
