package tiers

import (
	"testing"

	"vwchar/internal/sim"
	"vwchar/internal/telemetry"
	"vwchar/internal/timeseries"
)

// collapseTel builds the window series a real collector feeds the
// autoscaler, including the fault series the collapse signal reads:
// p95, throughput, in-flight, timeouts, failures, availability.
func collapseTel() *timeseries.Set {
	return timeseries.NewSet(
		timeseries.New(telemetry.LatencyP95, "ms"),
		timeseries.New(telemetry.Throughput, "req/s"),
		timeseries.New(telemetry.Inflight, "requests"),
		timeseries.New(telemetry.Timeouts, "requests/window"),
		timeseries.New(telemetry.Failures, "requests/window"),
		timeseries.New(telemetry.Availability, "fraction"),
	)
}

// appendWindow closes one window by hand: one sample per series, in
// the series' order.
func appendWindow(tel *timeseries.Set, samples ...float64) {
	for i, s := range tel.All() {
		s.Append(samples[i])
	}
}

// TestAutoscalerScalesDuringCollapse is the overload-robustness
// regression: under total collapse nothing completes, so the
// throughput gate used to classify every window as idle and reset the
// violation streak — the autoscaler could never fire during exactly
// the outage it exists for. The composite signal (demand trapped in
// flight, abnormal outcomes, availability below 1) must keep the
// streak alive and boot the parked replica.
func TestAutoscalerScalesDuringCollapse(t *testing.T) {
	c := pickCluster(LBRoundRobin, 2)
	c.state[1] = ReplicaParked
	c.activeCount, c.peakActive = 1, 1
	tel := collapseTel()
	a := NewAutoscaler(c, tel, AutoscalerSpec{
		SLOMillis:       100,
		ScaleUpWindows:  3,
		CooldownSeconds: 2,
		BootSeconds:     5,
	})

	// Window 1: overloaded but still completing — a classic violation.
	now := 2 * sim.Second
	appendWindow(tel, 500, 10, 30, 0, 0, 1)
	a.OnSample(now)

	// Windows 2-3: total collapse. Zero completions, 40 requests
	// trapped in flight, timeouts concluding, availability at zero.
	for i := 0; i < 2; i++ {
		now += 2 * sim.Second
		appendWindow(tel, 0, 0, 40, 5, 2, 0)
		a.OnSample(now)
	}

	boots := 0
	for _, e := range c.Events {
		if e.Kind == "boot" {
			boots++
		}
	}
	if boots != 1 || c.Booting() != 1 {
		t.Fatalf("collapse windows did not sustain the streak: boots=%d booting=%d, want 1/1",
			boots, c.Booting())
	}
}

// TestAutoscalerIdleStillResetsStreak pins the other half of the
// contract: a genuinely idle zero-throughput window (nothing in
// flight, no abnormal outcomes, availability 1) carries no overload
// signal and must still break the streak.
func TestAutoscalerIdleStillResetsStreak(t *testing.T) {
	c := pickCluster(LBRoundRobin, 2)
	c.state[1] = ReplicaParked
	c.activeCount, c.peakActive = 1, 1
	tel := collapseTel()
	a := NewAutoscaler(c, tel, AutoscalerSpec{
		SLOMillis:       100,
		ScaleUpWindows:  2,
		CooldownSeconds: 2,
		BootSeconds:     5,
	})

	// Alternate hot and idle windows: the streak never reaches 2.
	now := sim.Time(0)
	for i := 0; i < 6; i++ {
		now += 2 * sim.Second
		if i%2 == 0 {
			appendWindow(tel, 500, 10, 5, 0, 0, 1)
		} else {
			appendWindow(tel, 0, 0, 0, 0, 0, 1)
		}
		a.OnSample(now)
	}
	if c.Booting() != 0 {
		t.Fatalf("idle windows no longer reset the streak: %d booting", c.Booting())
	}
}
