package vwchar_test

import (
	"bytes"
	"testing"

	"vwchar"
	"vwchar/internal/sim"
	"vwchar/internal/telemetry"
)

// cascadeSweepSpec arms every correlated-failure feature at once on
// the cluster grid: a shared-fate rack loss, a web-crash storm, a
// conditional trigger, the load-coupled crash hazard, and the
// overload controller — the worst case for cross-worker determinism,
// since the hazard and brownout read live run state every window.
func cascadeSweepSpec(workers int) vwchar.SweepSpec {
	return vwchar.SweepSpec{
		Points: vwchar.SweepGrid(
			[]vwchar.Env{vwchar.Virtualized},
			[]vwchar.MixKind{vwchar.MixBrowsing, vwchar.MixBidding},
			func(c *vwchar.Config) {
				c.Clients = 800
				c.Duration = 40 * sim.Second
				c.Dataset.Users = 2000
				c.Dataset.ActiveItems = 600
				c.Dataset.OldItems = 1300
				c.Dataset.BufferPages = 500
				c.Topology = &vwchar.Topology{
					WebReplicas:    3,
					MaxWebReplicas: 3,
					DBReadReplicas: 1,
					Machines:       2,
					LB:             vwchar.LBJoinShortestQueue,
				}
				c.Faults = &vwchar.FaultSchedule{
					WebCrash: &vwchar.FaultComponent{AtSeconds: 8, MTTRSeconds: 10, Targets: []int{1}},
					Correlation: &vwchar.FaultCorrelation{
						Groups: []vwchar.SharedFateGroup{{
							Name: "rack1", Machines: []int{1}, AtSeconds: 20, MTTRSeconds: 8,
						}},
						Storms: []vwchar.FaultStorm{{
							Name: "squall", Component: "web_crash", RatePerHour: 600,
							Profile: vwchar.StormProfileDiurnal, PeriodSeconds: 40, PeakSeconds: 20,
							PeakFactor: 3, MTTRSeconds: 5,
						}},
						Triggers: []vwchar.FaultTrigger{{
							Name: "pair-overload", While: "web", WhileTarget: 1,
							Component: "web_crash", Targets: []int{2},
							MTTFSeconds: 4, MTTRSeconds: 3,
						}},
					},
					// Workers=64 per replica, so these utilization knobs are
					// deliberately tiny: queue depth 1 at a window boundary
					// is already over the hazard threshold at this load.
					Hazard: &vwchar.HazardSpec{
						UtilThreshold: 0.015, CrashProb: 0.5, MTTRSeconds: 8, MaxCrashes: 2,
					},
				}
				res := vwchar.DefaultResilience()
				res.Brownout = &vwchar.BrownoutSpec{EnterUtil: 0.01, ExitUtil: 0.002, DropFraction: 0.5, MaxLevel: 2}
				c.Resilience = &res
			}),
		Replications: 2,
		RootSeed:     77,
		Workers:      workers,
	}
}

// TestCascadeSweepByteIdenticalAcrossWorkers extends the determinism
// contract to correlated failures: with shared-fate groups, a storm, a
// trigger, the in-run crash hazard, and the brownout controller all
// armed, a fixed seed must produce byte-identical aggregated output at
// workers=1 and workers=8.
func TestCascadeSweepByteIdenticalAcrossWorkers(t *testing.T) {
	table := func(workers int) ([]byte, *vwchar.SweepResult) {
		sr, err := vwchar.Sweep(cascadeSweepSpec(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sr.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), sr
	}
	seq, sr := table(1)
	par, _ := table(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("cascade sweep output differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}

	var stormEvents, hazardCrashes, degraded, dropped uint64
	for i := range sr.Points {
		pr := &sr.Points[i]
		for _, rep := range pr.Reps {
			rq := rep.Requests
			if rq == nil {
				t.Fatalf("%s: cascade run missing request accounting", pr.Point.Name)
			}
			if sum := rq.Served + rq.TimedOut + rq.Shed + rq.Failed + rq.Degraded + rq.InFlight; sum != rq.Issued {
				t.Fatalf("%s: accounting broken: served %d + timed-out %d + shed %d + failed %d + degraded %d + in-flight %d != issued %d",
					pr.Point.Name, rq.Served, rq.TimedOut, rq.Shed, rq.Failed, rq.Degraded, rq.InFlight, rq.Issued)
			}
			if rq.Served == 0 {
				t.Fatalf("%s: cascade run served nothing", pr.Point.Name)
			}
			// The window series conserve the run totals: every outcome
			// and retry lands in exactly one window.
			tel := rep.Telemetry
			for _, c := range []struct {
				series string
				total  uint64
			}{
				{telemetry.Failures, rq.Failed},
				{telemetry.Timeouts, rq.TimedOut},
				{telemetry.Sheds, rq.Shed},
				{telemetry.Degraded, rq.Degraded},
				{telemetry.Retries, rep.Guard.Retries},
			} {
				if sum := tel.ByName(c.series).Sum(); sum != float64(c.total) {
					t.Fatalf("%s: sum of %s windows = %v, run total %d", pr.Point.Name, c.series, sum, c.total)
				}
			}
			if tput := tel.ByName(telemetry.Throughput); tput.Sum()*tput.Interval != float64(rq.Served) {
				t.Fatalf("%s: windowed throughput x %v s = %v, served %d",
					pr.Point.Name, tput.Interval, tput.Sum()*tput.Interval, rq.Served)
			}
			if rep.Hazard == nil || rep.Brownout == nil {
				t.Fatalf("%s: hazard/brownout accounting missing: %v %v", pr.Point.Name, rep.Hazard, rep.Brownout)
			}
			hazardCrashes += uint64(len(rep.Hazard.Crashes))
			degraded += rq.Degraded
			dropped += rep.Brownout.Dropped
			sawGroup := false
			for _, ev := range rep.FaultTimeline {
				switch ev.Origin {
				case "squall":
					stormEvents++
				case "rack1":
					sawGroup = true
				}
			}
			if !sawGroup {
				t.Fatalf("%s: shared-fate group never expanded", pr.Point.Name)
			}
		}
	}
	// Non-vacuity across the grid: the storm fired, the brownout shed
	// or degraded work, and the correlated machinery left its mark.
	if stormEvents == 0 {
		t.Fatal("storm produced no events across the grid")
	}
	if degraded+dropped == 0 {
		t.Fatal("overload controller never degraded or dropped anything; the cascade grid is vacuous")
	}
	if hazardCrashes == 0 {
		t.Fatal("load-coupled hazard never fired across the grid; the cascade grid is vacuous")
	}
}
