package characterize

import (
	"math"
	"strings"
	"testing"

	"vwchar/internal/experiment"
	"vwchar/internal/sim"
	"vwchar/internal/telemetry"
	"vwchar/internal/tiers"
	"vwchar/internal/timeseries"
)

func seriesOf(name, unit string, values ...float64) *timeseries.Series {
	s := timeseries.New(name, unit)
	for _, v := range values {
		s.Append(v)
	}
	return s
}

// A hand-built degraded run: every derived quantity is checkable by
// hand against the documented formulas.
func syntheticFaultResult() *experiment.Result {
	return &experiment.Result{
		Requests: &experiment.RequestStats{
			Issued: 1000, Served: 900, TimedOut: 40, Shed: 30, Failed: 20, InFlight: 10,
		},
		Guard: &tiers.GuardStats{Timeouts: 40, Retries: 55, Sheds: 30, BreakerOpens: 2},
		Failovers: []tiers.FailoverEvent{
			{DetectedAt: sim.Seconds(10), PromotedAt: sim.Seconds(13), NewPrimary: 1},
			{DetectedAt: sim.Seconds(40), PromotedAt: sim.Seconds(45), NewPrimary: 2},
		},
		Telemetry: timeseries.NewSet(
			seriesOf(telemetry.Availability, "fraction", 1, 1, 0.995, 0.97, 0.95, 1, 0.98, 1),
			seriesOf(telemetry.LatencyP95, "ms", 100, 100, 900, 1500, 1500, 100, 400, 100),
			seriesOf(telemetry.Throughput, "req/s", 50, 50, 50, 50, 50, 50, 50, 50),
		),
	}
}

func TestAnalyzeAvailabilitySynthetic(t *testing.T) {
	a := AnalyzeAvailability(syntheticFaultResult(), 500)

	if got, want := a.Delivered, 900.0/990.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Delivered = %v, want %v", got, want)
	}
	if a.Issued != 1000 || a.Served != 900 || a.TimedOut != 40 || a.Shed != 30 || a.Failed != 20 || a.InFlight != 10 {
		t.Errorf("request accounting not copied through: %+v", a)
	}
	if a.Retries != 55 || a.BreakerOpens != 2 {
		t.Errorf("guard counters = %d retries / %d opens, want 55 / 2", a.Retries, a.BreakerOpens)
	}
	if a.Failovers != 2 {
		t.Fatalf("Failovers = %d, want 2", a.Failovers)
	}
	// (13-10 + 45-40) / 2 = 4 s.
	if math.Abs(a.MeanTimeToFailoverSec-4) > 1e-9 {
		t.Errorf("MeanTimeToFailoverSec = %v, want 4", a.MeanTimeToFailoverSec)
	}

	if a.WorstWindowAvailability != 0.95 {
		t.Errorf("WorstWindowAvailability = %v, want 0.95", a.WorstWindowAvailability)
	}
	// Windows below 1.0: indices 2, 3, 4, 6.
	if a.FaultWindows != 4 {
		t.Errorf("FaultWindows = %d, want 4", a.FaultWindows)
	}
	// Below the 0.99 outage threshold: the {0.97, 0.95} run and the
	// lone 0.98 window — two episodes spanning three 2 s windows.
	if a.Outages != 2 {
		t.Errorf("Outages = %d, want 2", a.Outages)
	}
	if math.Abs(a.MTTRObservedSec-3) > 1e-9 {
		t.Errorf("MTTRObservedSec = %v, want 3", a.MTTRObservedSec)
	}
	// Degraded windows over the 500 ms SLO: (900-500)/1e3*50*2 +
	// 2*(1500-500)/1e3*50*2 = 40 + 100 + 100; window 6 (400 ms) adds 0.
	if math.Abs(a.SLODebtFaultSec-240) > 1e-9 {
		t.Errorf("SLODebtFaultSec = %v, want 240", a.SLODebtFaultSec)
	}

	var sb strings.Builder
	if err := a.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"availability: 0.9091 delivered", "2 failover(s)", "2 outage(s)", "MTTR-as-observed 3.0 s"} {
		if !strings.Contains(out, want) {
			t.Errorf("Write output missing %q:\n%s", want, out)
		}
	}
}

// TestAnalyzeAvailabilityOpenOutage pins the open-outage flag: a run
// that ends inside an outage must say so, because the observed MTTR is
// then only a lower bound — the system never demonstrated recovery.
func TestAnalyzeAvailabilityOpenOutage(t *testing.T) {
	r := &experiment.Result{
		Requests: &experiment.RequestStats{
			Issued: 100, Served: 60, Failed: 30, Degraded: 10,
		},
		Telemetry: timeseries.NewSet(
			seriesOf(telemetry.Availability, "fraction", 1, 1, 0.5, 0.4, 0.3),
			seriesOf(telemetry.LatencyP95, "ms", 100, 100, 100, 100, 100),
			seriesOf(telemetry.Throughput, "req/s", 50, 50, 50, 50, 50),
		),
	}
	a := AnalyzeAvailability(r, 500)
	if !a.OpenOutageAtEnd {
		t.Fatal("run ends three windows deep in an outage, OpenOutageAtEnd is false")
	}
	if a.Outages != 1 {
		t.Fatalf("Outages = %d, want 1", a.Outages)
	}
	if a.Degraded != 10 {
		t.Fatalf("Degraded = %d, want 10", a.Degraded)
	}
	var sb strings.Builder
	if err := a.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "STILL OPEN at run end") {
		t.Errorf("Write output does not flag the open outage:\n%s", out)
	}
	if !strings.Contains(out, "(10 degraded)") {
		t.Errorf("Write output does not report degraded answers:\n%s", out)
	}

	// The same shape with a recovery window at the end is closed.
	r.Telemetry.ByName(telemetry.Availability).Values[4] = 1
	if a := AnalyzeAvailability(r, 500); a.OpenOutageAtEnd {
		t.Fatal("outage recovered in the final window, OpenOutageAtEnd is true")
	}
}

func TestAnalyzeAvailabilityFaultFree(t *testing.T) {
	// No request accounting, no guard, no availability series: the
	// analysis must report a fully healthy run, not zeros.
	a := AnalyzeAvailability(&experiment.Result{}, 500)
	if a.Delivered != 1 {
		t.Errorf("Delivered = %v, want 1", a.Delivered)
	}
	if a.WorstWindowAvailability != 1 {
		t.Errorf("WorstWindowAvailability = %v, want 1", a.WorstWindowAvailability)
	}
	if a.Outages != 0 || a.FaultWindows != 0 || a.Failovers != 0 || a.SLODebtFaultSec != 0 {
		t.Errorf("fault-free run reports degradation: %+v", a)
	}
}
