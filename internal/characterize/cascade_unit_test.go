package characterize

import (
	"strings"
	"testing"

	"vwchar/internal/experiment"
	"vwchar/internal/faults"
	"vwchar/internal/sim"
	"vwchar/internal/telemetry"
	"vwchar/internal/tiers"
	"vwchar/internal/timeseries"
)

// TestAnalyzeCascadeSynthetic checks the blast-radius sweep, the
// overlap-chained cascade depth, the origin split, and the
// time-to-stabilize window math against a hand-built timeline.
func TestAnalyzeCascadeSynthetic(t *testing.T) {
	avail := seriesOf(telemetry.Availability, "fraction", 1, 1, 1, 1, 1, 0.9, 0.9, 0.9, 0.9, 1)
	p95 := seriesOf(telemetry.LatencyP95, "ms", 100, 100, 100, 100, 100, 100, 100, 100, 100, 100)
	r := &experiment.Result{
		Config: experiment.Config{Duration: 100 * sim.Second},
		FaultTimeline: []faults.Event{
			{At: 10 * sim.Second, Kind: faults.WebDown, Target: 0},
			{At: 20 * sim.Second, Kind: faults.MachineDown, Target: 0, Origin: "rack0"},
			{At: 20 * sim.Second, Kind: faults.MachineDown, Target: 1, Origin: "rack0"},
			{At: 30 * sim.Second, Kind: faults.WebUp, Target: 0},
			{At: 50 * sim.Second, Kind: faults.MachineUp, Target: 0, Origin: "rack0"},
			{At: 50 * sim.Second, Kind: faults.MachineUp, Target: 1, Origin: "rack0"},
			// A storm crash with no matching up: the outage stays open
			// and must close at the horizon.
			{At: 80 * sim.Second, Kind: faults.WebDown, Target: 1, Origin: "squall"},
		},
		Hazard: &tiers.HazardStats{Crashes: []tiers.HazardCrash{
			{At: 25 * sim.Second, Replica: 2, Util: 3, RepairAt: 40 * sim.Second},
		}},
		Brownout: &tiers.BrownoutStats{DegradedWindows: 3, PeakLevel: 2, Dropped: 7},
		Requests: &experiment.RequestStats{Issued: 100, Served: 91, Degraded: 9, Failed: 0},
		Telemetry: timeseries.NewSet(
			avail,
			p95,
			seriesOf(telemetry.Throughput, "req/s", 50, 50, 50, 50, 50, 50, 50, 50, 50, 50),
		),
	}
	a := AnalyzeCascade(r, 500)

	if a.ExogenousCrashes != 4 {
		t.Errorf("ExogenousCrashes = %d, want 4", a.ExogenousCrashes)
	}
	if a.HazardCrashes != 1 {
		t.Errorf("HazardCrashes = %d, want 1", a.HazardCrashes)
	}
	if a.ByOrigin["base"] != 1 || a.ByOrigin["rack0"] != 2 || a.ByOrigin["squall"] != 1 {
		t.Errorf("ByOrigin = %v, want base 1 / rack0 2 / squall 1", a.ByOrigin)
	}
	// t=25..30: web 0 down, both rack0 machines down, hazard crash 2.
	if a.BlastRadius != 4 {
		t.Errorf("BlastRadius = %d, want 4", a.BlastRadius)
	}
	// Spans [10,30] [20,50] [20,50] [25,40] chain by overlap; the
	// horizon-closed [80,100] starts a fresh chain of one.
	if a.CascadeDepth != 4 {
		t.Errorf("CascadeDepth = %d, want 4", a.CascadeDepth)
	}
	if a.FirstFaultSec != 10 {
		t.Errorf("FirstFaultSec = %v, want 10", a.FirstFaultSec)
	}
	// Last unhealthy window is index 8 (avail 0.9), so the unhealthy
	// era ends at (8+1)*2 s = 18 s: 8 s after the first fault, with a
	// healthy final window.
	if a.TimeToStabilizeSec != 8 {
		t.Errorf("TimeToStabilizeSec = %v, want 8", a.TimeToStabilizeSec)
	}
	if !a.Stabilized {
		t.Error("final window is healthy, Stabilized is false")
	}
	if a.DegradedWindows != 3 || a.PeakBrownoutLevel != 2 || a.DroppedOptional != 7 || a.DegradedRequests != 9 {
		t.Errorf("brownout accounting not copied through: %+v", a)
	}

	var sb strings.Builder
	if err := a.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"4 exogenous crash(es)", "base 1, rack0 2, squall 1", "blast radius 4", "cascade depth 4", "stabilized"} {
		if !strings.Contains(out, want) {
			t.Errorf("Write output missing %q:\n%s", want, out)
		}
	}

	// An unhealthy final window flips the verdict.
	avail.Values[len(avail.Values)-1] = 0.8
	if a := AnalyzeCascade(r, 500); a.Stabilized {
		t.Error("final window unhealthy, Stabilized is true")
	}
}

// TestAnalyzeCascadeFaultFree pins the healthy-run shape.
func TestAnalyzeCascadeFaultFree(t *testing.T) {
	a := AnalyzeCascade(&experiment.Result{Config: experiment.Config{Duration: 60 * sim.Second}}, 500)
	if a.ExogenousCrashes != 0 || a.HazardCrashes != 0 || a.BlastRadius != 0 || a.CascadeDepth != 0 {
		t.Errorf("fault-free run reports crashes: %+v", a)
	}
	if !a.Stabilized {
		t.Error("fault-free run not stabilized")
	}
}
