// Cascade: correlated failures and overload-adaptive degradation on
// the replicated cluster. Two experiments:
//
//  1. Load-coupled cascade. The crash hazard couples failure to load:
//     whenever a web replica's utilization crosses the threshold at a
//     window boundary, it crashes with fixed probability. A crash
//     shifts the closed-loop population onto the survivors, raising
//     THEIR utilization — the classic correlated-failure spiral. Run
//     once bare, the spiral feeds itself: crashes keep firing and the
//     run never re-enters SLO. Run again with the brownout controller,
//     degraded answers bleed load before utilization reaches the
//     hazard threshold, the spiral is cut, and the cluster stabilizes.
//     The cascade analysis (blast radius, cascade depth, time-to-
//     stabilize) quantifies the difference.
//
//  2. Autoscaler vs failure. A web replica dies for good while the
//     autoscaler holds spare capacity. The sweep crosses the scaler's
//     detection window (consecutive violating windows before it acts)
//     with its boot delay, and reports what each combination costs in
//     lost requests and peak p95 — the repair-race the correlated-
//     failure study cares about: detection + boot must beat the
//     hazard's compounding.
//
// Everything replays byte-identically under the same -seed.
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
	clients := flag.Int("clients", 4000, "closed-loop client population (sized to overload one replica)")
	duration := flag.Float64("duration", 120, "run length in seconds")
	seed := flag.Uint64("seed", 7, "experiment seed (cascades replay byte-identically)")
	sloMillis := flag.Float64("slo-ms", 500, "latency SLO for the analyses (ms)")
	flag.Parse()

	topo := &vwchar.Topology{
		WebReplicas:    2,
		MaxWebReplicas: 2,
		DBReadReplicas: 1,
		Machines:       2,
		LB:             vwchar.LBJoinShortestQueue,
	}

	// -- Experiment 1: load-coupled cascade vs brownout ----------------
	// The population is sized so one replica alone is over capacity.
	// When replica 1 dies, the whole crowd lands on the survivor and
	// its resident count climbs toward the thousands — past the hazard
	// trip point of eight pool-depths (512 resident over the 64-worker
	// pool) — and the survivor crashes too: total loss, load-coupled.
	// Repairs dump replicas back into the same crowd, so the bare run
	// keeps collapsing.
	sched := &vwchar.FaultSchedule{
		WebCrash: &vwchar.FaultComponent{AtSeconds: 20, MTTRSeconds: 15, Targets: []int{1}},
		Hazard: &vwchar.HazardSpec{
			UtilThreshold: 8,
			CrashProb:     0.5,
			MTTRSeconds:   20,
		},
	}

	runOne := func(name string, res *vwchar.ResilienceSpec) *vwchar.Result {
		cfg := vwchar.DefaultConfig(vwchar.Virtualized, vwchar.MixBrowsing)
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

	bareRes := vwchar.DefaultResilience()
	bare := runOne("load-coupled cascade, no controller", &bareRes)

	// The controller enters degraded mode half a pool deep, sheds
	// optional reads, and bounds every replica's resident count at one
	// pool — far below the hazard's eight-pool trip point, so the
	// survivor soaks the crowd without ever arming the hazard. The one
	// window of lag before the bound engages is why the trip point must
	// sit above the first window's transient.
	ctlRes := vwchar.DefaultResilience()
	ctlRes.Brownout = &vwchar.BrownoutSpec{
		EnterUtil:    0.5,
		ExitUtil:     0.1,
		DropFraction: 0.5,
		MaxLevel:     2,
		QueueBound:   64,
	}
	controlled := runOne("load-coupled cascade, brownout controller", &ctlRes)

	fmt.Printf("== load-coupled cascade: replica 1 dies at t=20 s, hazard armed ==\n\n")
	var bareA, ctlA vwchar.CascadeAnalysis
	for _, row := range []struct {
		name string
		r    *vwchar.Result
		out  *vwchar.CascadeAnalysis
	}{{"no controller", bare, &bareA}, {"brownout controller", controlled, &ctlA}} {
		*row.out = vwchar.AnalyzeCascade(row.r, *sloMillis)
		fmt.Printf("-- %s --\n", row.name)
		if err := row.out.Write(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	if err := plot.Render(os.Stdout, plot.DefaultOptions("response-time p95 per 2 s window", "ms"),
		bare.Telemetry.ByName(telemetry.LatencyP95).Clone("no controller"),
		controlled.Telemetry.ByName(telemetry.LatencyP95).Clone("brownout")); err != nil {
		log.Fatal(err)
	}

	// The cascade must be real, and the controller must actually cut it.
	if bareA.HazardCrashes == 0 {
		log.Fatal("the hazard never fired in the bare run — the cascade is vacuous")
	}
	if bareA.CascadeDepth < 2 {
		log.Fatal("crashes never compounded in the bare run — no cascade to cut")
	}
	if ctlA.DroppedOptional+ctlA.DegradedRequests == 0 {
		log.Fatal("the brownout controller never degraded anything — the comparison is vacuous")
	}
	if ctlA.HazardCrashes >= bareA.HazardCrashes {
		log.Fatal("the controller did not reduce load-induced crashes")
	}
	if !ctlA.Stabilized {
		log.Fatal("the controlled run did not stabilize by the horizon")
	}
	fmt.Printf("\nhazard crashes: %d bare vs %d controlled; blast radius %d vs %d; ",
		bareA.HazardCrashes, ctlA.HazardCrashes, bareA.BlastRadius, ctlA.BlastRadius)
	fmt.Printf("time-to-stabilize %.1f s vs %.1f s\n", bareA.TimeToStabilizeSec, ctlA.TimeToStabilizeSec)

	// -- Experiment 2: autoscaler vs failure ---------------------------
	// Replica 1 of 2 dies for good at t=30 s; two spare replicas are
	// provisioned but cold. How fast the scaler converts spares into
	// capacity is detection (violating windows x 2 s each) plus boot.
	fmt.Printf("\n== autoscaler vs failure: replica dies at t=30 s, spares are cold ==\n\n")
	fmt.Printf("%-10s %-10s %-12s %-10s %-10s\n", "detect", "boot(s)", "lost", "peak p95", "avail")

	type cell struct {
		detect, boot int
		lost         uint64
		peak         float64
	}
	var best, worst *cell
	for _, detect := range []int{1, 2, 4} {
		for _, boot := range []int{5, 20, 40} {
			cfg := vwchar.DefaultConfig(vwchar.Virtualized, vwchar.MixBrowsing)
			cfg.Clients = *clients
			cfg.Duration = sim.Seconds(*duration)
			cfg.Seed = *seed
			cfg.Faults = &vwchar.FaultSchedule{
				WebCrash: &vwchar.FaultComponent{AtSeconds: 30, Targets: []int{1}}, // permanent
			}
			res := vwchar.DefaultResilience()
			cfg.Resilience = &res
			cfg.Topology = &vwchar.Topology{
				WebReplicas:    2,
				MaxWebReplicas: 4,
				DBReadReplicas: 1,
				Machines:       2,
				LB:             vwchar.LBJoinShortestQueue,
				Autoscaler: &vwchar.AutoscalerSpec{
					SLOMillis:        *sloMillis,
					ScaleUpWindows:   detect,
					BootSeconds:      float64(boot),
					CooldownSeconds:  10,
					ScaleDownWindows: 1000, // never drain mid-experiment
				},
			}
			if err := cfg.Validate(); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "running detect=%d boot=%ds...\n", detect, boot)
			r, err := vwchar.Run(cfg)
			if err != nil {
				log.Fatal(err)
			}
			rq := r.Requests
			a := vwchar.AnalyzeAvailability(r, *sloMillis)
			c := &cell{detect, boot, rq.TimedOut + rq.Shed + rq.Failed, r.Telemetry.ByName(telemetry.LatencyP95).Max()}
			fmt.Printf("%-10d %-10d %-12d %-10.0f %-10.4f\n", detect, boot, c.lost, c.peak, a.Delivered)
			if best == nil || c.lost < best.lost {
				best = c
			}
			if worst == nil || c.lost > worst.lost {
				worst = c
			}
		}
	}
	if worst.lost == 0 {
		log.Fatal("no combination lost anything — the failure was vacuous")
	}
	if best.lost >= worst.lost {
		log.Fatal("detection window and boot delay made no difference")
	}
	fmt.Printf("\nbest cell (detect %d, boot %d s) lost %d requests; worst (detect %d, boot %d s) lost %d.\n",
		best.detect, best.boot, best.lost, worst.detect, worst.boot, worst.lost)
	fmt.Println("detection and boot delay compose: the scaler must win the race against the")
	fmt.Println("queue the dead replica leaves behind. Note the long-detection rows: during")
	fmt.Println("the collapse every request times out, timed-out requests complete nothing,")
	fmt.Println("and zero-throughput windows carry no p95 signal — so a detection streak")
	fmt.Println("long enough to be starved by the outage it watches for never fires at all.")
	fmt.Println("Rerun with the same -seed to replay the identical timeline.")
}
