package faults

import (
	"encoding/json"
	"reflect"
	"testing"

	"vwchar/internal/rng"
	"vwchar/internal/sim"
)

// FuzzScheduleRoundTrip feeds arbitrary JSON through the schedule's
// full lifecycle: unmarshal, validate, re-marshal, and — for schedules
// that validate — expand twice against the same seed. Nothing may
// panic, marshaling must be a fixed point after one round trip, and
// expansion must be deterministic. Validation is the safety boundary
// the fuzzer leans on: a schedule it accepts must expand a finite
// timeline in bounded time, which is why tiny MTTFs and unbounded
// storm rates are rejected there.
func FuzzScheduleRoundTrip(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"WebCrash":{"MTTFSeconds":300,"MTTRSeconds":30}}`,
		`{"Correlation":{"Groups":[{"Name":"r0","Machines":[0,1],"AtSeconds":100,"MTTRSeconds":60}]}}`,
		`{"Correlation":{"Storms":[{"Name":"s","Component":"web_crash","RatePerHour":30,"Profile":"diurnal","MTTRSeconds":45}]}}`,
		`{"Correlation":{"Triggers":[{"Name":"t","While":"db","Component":"web_crash","MTTFSeconds":50,"MTTRSeconds":20}]}}`,
		`{"Hazard":{"UtilThreshold":4,"CrashProb":0.1,"MTTRSeconds":60}}`,
		`{"WebCrash":{"MTTFSeconds":1e-9}}`,
		`{"Correlation":{"Storms":[{"Name":"s","Component":"web_crash","RatePerHour":1e18}]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Schedule
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			return
		}
		// One round trip reaches the canonical form; a second must be a
		// fixed point (marshal-stable schedules survive config files).
		b1, err := json.Marshal(&s)
		if err != nil {
			t.Fatalf("marshal after validate: %v", err)
		}
		var s2 Schedule
		if err := json.Unmarshal(b1, &s2); err != nil {
			t.Fatalf("re-unmarshal canonical form: %v", err)
		}
		b2, err := json.Marshal(&s2)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if string(b1) != string(b2) {
			t.Fatalf("marshal not a fixed point:\n%s\n%s", b1, b2)
		}
		// Expansion is pure in the seed: two expansions of a validated
		// schedule against fresh sources are identical.
		const dur = 200 * sim.Second
		tg := Targets{Webs: 3, DBs: 2, Machines: 2}
		e1 := s.Expand(dur, tg, rng.NewSource(7))
		e2 := s.Expand(dur, tg, rng.NewSource(7))
		if !reflect.DeepEqual(e1, e2) {
			t.Fatalf("expansion not deterministic: %d vs %d events", len(e1), len(e2))
		}
		for _, ev := range e1 {
			if ev.At < 0 || ev.At > dur {
				t.Fatalf("event outside the horizon: %+v", ev)
			}
		}
	})
}

// FuzzCorrelationValidate hammers the correlation validator alone with
// arbitrary JSON: it must never panic and must always return (accept
// or reject) — the timeline-explosion guards live here.
func FuzzCorrelationValidate(f *testing.F) {
	seeds := []string{
		`{"Groups":[{"Name":"","Machines":[]}]}`,
		`{"Storms":[{"Name":"s","Component":"nope","RatePerHour":-1}]}`,
		`{"Triggers":[{"Name":"t","While":"web","Component":"web","MTTFSeconds":0}]}`,
		`{"Groups":[{"Name":"a","Machines":[0]},{"Name":"a","Machines":[1]}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Correlation
		if err := json.Unmarshal(data, &c); err != nil {
			return
		}
		_ = c.Validate()
	})
}
