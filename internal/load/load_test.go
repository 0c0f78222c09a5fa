package load

import (
	"math"
	"strings"
	"testing"
)

// TestSpecValidation covers the per-kind parameter checks.
func TestSpecValidation(t *testing.T) {
	good := []Spec{
		{Kind: Poisson, Rate: 1},
		{Kind: Bursty, Rate: 1, BurstFactor: 4, BaseDwell: 60, BurstDwell: 15},
		{Kind: Diurnal, Rate: 2, Amplitude: 0.5, PeriodSeconds: 600},
		{Kind: Spike, Rate: 1, SpikeFactor: 8, SpikeAt: 100, SpikeRamp: 10, SpikeHold: 60},
		{Kind: Trace, TracePoints: []TracePoint{{0, 1}, {10, 3}}},
		{Kind: Trace, Rate: 2, TracePoints: []TracePoint{{0, 1}}},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Fatalf("good spec %d rejected: %v", i, err)
		}
		if _, err := s.Build(); err != nil {
			t.Fatalf("good spec %d failed to build: %v", i, err)
		}
	}
	bad := []Spec{
		{},                        // no kind
		{Kind: "weird", Rate: 1},  // unknown kind
		{Kind: Poisson},           // no rate
		{Kind: Poisson, Rate: -1}, // negative rate
		{Kind: Bursty, Rate: 1},   // missing burst params
		{Kind: Bursty, Rate: 1, BurstFactor: 0.5, BaseDwell: 1, BurstDwell: 1}, // deburst
		{Kind: Diurnal, Rate: 1, Amplitude: 1.5, PeriodSeconds: 60},            // amplitude >= 1
		{Kind: Diurnal, Rate: 1, Amplitude: 0.5},                               // no period
		{Kind: Spike, Rate: 1, SpikeFactor: 8},                                 // no window
		{Kind: Trace},                                                          // no points
		{Kind: Poisson, Rate: 1, SessionMean: 0.5},                             // sub-1 mean
		{Kind: Poisson, Rate: 1, AbandonAfterSeconds: -1},                      // negative SLO
		{Kind: Poisson, Rate: 1, RampSeconds: -3},                              // negative ramp
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad spec %d accepted: %+v", i, s)
		}
	}
}

// TestCatalog pins that every built-in scenario validates, builds, and
// round-trips, and that lookups are by-value (no aliasing).
func TestCatalog(t *testing.T) {
	scs := Scenarios()
	if len(scs) < 4 {
		t.Fatalf("catalog has only %d scenarios", len(scs))
	}
	for _, sc := range scs {
		if sc.Name == "" || sc.Summary == "" {
			t.Fatalf("scenario %+v missing name or summary", sc)
		}
		if err := sc.Spec.Validate(); err != nil {
			t.Fatalf("catalog scenario %q invalid: %v", sc.Name, err)
		}
		if _, err := sc.Spec.Build(); err != nil {
			t.Fatalf("catalog scenario %q failed to build: %v", sc.Name, err)
		}
		if sc.Spec.MeanRate() <= 0 {
			t.Fatalf("catalog scenario %q has mean rate %v", sc.Name, sc.Spec.MeanRate())
		}
		got, err := Scenario(sc.Name)
		if err != nil {
			t.Fatal(err)
		}
		got.Rate = -99 // mutating the copy must not touch the catalog
		again, err := Scenario(sc.Name)
		if err != nil {
			t.Fatal(err)
		}
		if again.Rate == -99 {
			t.Fatalf("Scenario(%q) aliases the catalog", sc.Name)
		}
	}
	if _, err := Scenario("no-such-thing"); err == nil || !strings.Contains(err.Error(), "no-such-thing") {
		t.Fatalf("unknown scenario error = %v", err)
	}
	names := ScenarioNames()
	if len(names) != len(scs) {
		t.Fatalf("ScenarioNames has %d entries, catalog %d", len(names), len(scs))
	}
}

// TestParseTraceCSV covers the CSV reader: headers, comments, blanks,
// and malformed lines.
func TestParseTraceCSV(t *testing.T) {
	pts, err := ParseTrace(strings.NewReader(
		"time,rate\n# warmup excluded\n\n0, 1.5\n30,4\n 90 , 2 \n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []TracePoint{{0, 1.5}, {30, 4}, {90, 2}}
	if len(pts) != len(want) {
		t.Fatalf("parsed %d points, want %d", len(pts), len(want))
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("point %d = %v, want %v", i, pts[i], want[i])
		}
	}
	for _, badCSV := range []string{
		"",                  // empty
		"0;1\n",             // wrong separator
		"0,1\nbogus,line\n", // non-numeric past the header
		"0,1\n10\n",         // missing field
		"10,1\n5,2\n",       // unsorted
		"0,-1\n10,1\n",      // negative rate
	} {
		if _, err := ParseTrace(strings.NewReader(badCSV)); err == nil {
			t.Fatalf("ParseTrace accepted %q", badCSV)
		}
	}
}

// TestMeanRate pins the long-run intensity closed forms the
// equivalence tests and docs rely on.
func TestMeanRate(t *testing.T) {
	cases := []struct {
		spec Spec
		want float64
	}{
		{Spec{Kind: Poisson, Rate: 3}, 3},
		// 2/3 of the time at 1, 1/3 at 4 -> 2.
		{Spec{Kind: Bursty, Rate: 1, BurstFactor: 4, BaseDwell: 20, BurstDwell: 10}, 2},
		{Spec{Kind: Diurnal, Rate: 2.5, Amplitude: 0.9, PeriodSeconds: 60}, 2.5},
		{Spec{Kind: Spike, Rate: 2, SpikeFactor: 8, SpikeAt: 10, SpikeRamp: 5, SpikeHold: 10}, 2},
		// Trapezoid 1->3 over 0..10: area 20 over span 10 -> 2; x1.5.
		{Spec{Kind: Trace, Rate: 1.5, TracePoints: []TracePoint{{0, 1}, {10, 3}}}, 3},
		{Spec{Kind: Trace, TracePoints: []TracePoint{{5, 4}}}, 4},
	}
	for i, c := range cases {
		if got := c.spec.MeanRate(); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("case %d (%s): MeanRate = %v, want %v", i, c.spec.Kind, got, c.want)
		}
	}
}
