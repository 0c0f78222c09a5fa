// Chaos: fault injection against the guarded serving path. Two
// experiments on the replicated cluster:
//
//  1. Retry storm. The population is sized so one web replica alone
//     is over capacity. When its peer crashes, the survivor's queue
//     crosses the guard timeout, timeouts trigger retries, and the
//     retries amplify the very overload that caused them — the
//     metastable failure mode. The same posture with a circuit
//     breaker converts the excess into fast sheds instead, keeping
//     the survivor's queue (and the served p95) bounded. The example
//     contrasts retry amplification, peak windowed p95, and delivered
//     availability.
//
//  2. Primary failover. The DB primary dies for good under a
//     write-carrying load; the health monitor waits out the detection
//     window, promotes the read replica, and the path swap keeps
//     read-your-writes intact. The example reports the measured
//     time-to-failover and the availability analysis of the outage.
//
// Every fault is drawn from the experiment seed: rerunning with the
// same -seed replays the identical timeline.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"vwchar"
	"vwchar/internal/plot"
	"vwchar/internal/sim"
	"vwchar/internal/telemetry"
)

func main() {
	clients := flag.Int("clients", 2400, "closed-loop client population (sized to overload one replica)")
	duration := flag.Float64("duration", 300, "run length in seconds")
	seed := flag.Uint64("seed", 42, "experiment seed (faults replay byte-identically)")
	sloMillis := flag.Float64("slo-ms", 500, "latency SLO for the availability analysis (ms)")
	flag.Parse()

	topo := &vwchar.Topology{
		WebReplicas:    2,
		MaxWebReplicas: 2,
		DBReadReplicas: 1,
		Machines:       2,
		LB:             vwchar.LBJoinShortestQueue,
	}

	runOne := func(name string, mix vwchar.MixKind, sched *vwchar.FaultSchedule, res *vwchar.ResilienceSpec) *vwchar.Result {
		cfg := vwchar.DefaultConfig(vwchar.Virtualized, mix)
		cfg.Clients = *clients
		cfg.Duration = sim.Seconds(*duration)
		cfg.Seed = *seed
		cfg.Topology = topo
		cfg.Faults = sched
		cfg.Resilience = res
		if err := cfg.Validate(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", name)
		r, err := vwchar.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	// -- Experiment 1: retry storm vs circuit breaker ------------------
	// Replica 1 crashes at t=100 s and repairs 60 s later. Health
	// checks eject it quickly, so the survivor takes the whole
	// population — more than it can serve. Queueing pushes latency
	// past the 800 ms timeout, every timeout spawns retries, and with
	// an effectively unbounded retry budget the amplified load keeps
	// the survivor pinned: the storm.
	storm := &vwchar.FaultSchedule{
		WebCrash: &vwchar.FaultComponent{AtSeconds: 100, MTTRSeconds: 60, Targets: []int{1}},
	}
	aggressive := vwchar.ResilienceSpec{
		TimeoutMillis:      800,
		Retries:            3,
		BackoffMillis:      50,
		RetryBudget:        4, // deliberately unbounded-ish: the storm
		HealthEverySeconds: 1,
		EjectAfterChecks:   2,
	}
	braked := aggressive
	braked.Breaker = &vwchar.BreakerSpec{ErrorThreshold: 0.5, WindowRequests: 32, OpenMillis: 500}

	noBrk := runOne("retry storm, no breaker", vwchar.MixBrowsing, storm, &aggressive)
	withBrk := runOne("retry storm, breaker", vwchar.MixBrowsing, storm, &braked)

	fmt.Printf("== retry storm: web replica down t=100..160 s, aggressive retries ==\n\n")
	for _, row := range []struct {
		name string
		r    *vwchar.Result
	}{{"no breaker", noBrk}, {"breaker", withBrk}} {
		a := vwchar.AnalyzeAvailability(row.r, *sloMillis)
		fmt.Printf("-- %s --\n", row.name)
		if err := a.Write(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("peak windowed p95: %.0f ms\n\n", row.r.Telemetry.ByName(telemetry.LatencyP95).Max())
	}

	if err := plot.Render(os.Stdout, plot.DefaultOptions("response-time p95 per 2 s window", "ms"),
		noBrk.Telemetry.ByName(telemetry.LatencyP95).Clone("no breaker"),
		withBrk.Telemetry.ByName(telemetry.LatencyP95).Clone("breaker")); err != nil {
		log.Fatal(err)
	}

	stormRetries := noBrk.Guard.Retries
	brakedRetries := withBrk.Guard.Retries
	if stormRetries == 0 {
		log.Fatal("the storm run never retried — the fault was vacuous")
	}
	if brakedRetries >= stormRetries {
		log.Fatal("the breaker did not reduce retry volume")
	}
	stormPeak := noBrk.Telemetry.ByName(telemetry.LatencyP95).Max()
	brakedPeak := withBrk.Telemetry.ByName(telemetry.LatencyP95).Max()
	fmt.Printf("\nretries: %d without breaker vs %d with (%.1fx fewer); peak p95 %.0f ms vs %.0f ms\n",
		stormRetries, brakedRetries, float64(stormRetries)/float64(brakedRetries), stormPeak, brakedPeak)
	if brakedPeak > stormPeak {
		log.Fatal("the breaker did not cut the retry-storm peak p95")
	}

	// -- Experiment 2: DB primary failover under write load ------------
	failSched := &vwchar.FaultSchedule{
		DBCrash: &vwchar.FaultComponent{AtSeconds: 120, Targets: []int{0}}, // permanent
	}
	failRes := vwchar.DefaultResilience()
	failRes.FailoverDetectSeconds = 3
	failover := runOne("primary failover", vwchar.MixBidding, failSched, &failRes)

	fmt.Printf("\n== primary failover: DB primary killed at t=120 s, bidding mix ==\n\n")
	fa := vwchar.AnalyzeAvailability(failover, *sloMillis)
	if err := fa.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if fa.Failovers != 1 {
		log.Fatal("the primary was never promoted — failover is broken")
	}
	fmt.Printf("\nthe read replica was promoted %.1f s after detection; writes failed only\n", fa.MeanTimeToFailoverSec)
	fmt.Println("inside the detection window, and read-your-writes stayed intact across the")
	fmt.Println("swap. Rerun with the same -seed to replay the identical fault timeline.")
}
