// Cachetier: the cache and write-behind queue tiers under stress.
// Three experiments on the virtualized testbed:
//
//  1. Thundering herd. A flash crowd rides over TTL expiries of the
//     hottest keys (hot-key-expiry scenario, short TTL, a hot dataset
//     with few categories/regions). Mid-crowd the DB host starts
//     limping (4x CPU demand) and the cache cold-restarts: the whole
//     crowd mass-misses onto a DB that is already queueing, fill
//     windows stretch, and every request that finds a key expired
//     fetches it independently — the stampede series spikes, the DB
//     sees a fall-through load storm, and the windowed p95 shows the
//     knee. The same run with single-flight leases sends one fetch
//     per expired key and parks the herd on the fill, cutting the
//     redundant DB fetches and the herd-window latency knee.
//
//  2. Per-interaction attribution. The same run broken down by RUBiS
//     interaction kind: which request types the cache serves, at what
//     hit ratio, and what their latency looks like.
//
//  3. Write-behind backlog. A 10x write burst (backlog-drain
//     scenario, bidding mix) publishes into the broker faster than
//     the drain replays it; the backlog absorbs the burst, lag peaks,
//     and the drain works it off after the burst passes.
//
// Everything is seed-deterministic: rerunning with the same -seed
// replays every stampede and every drain batch identically.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"vwchar"
	"vwchar/internal/sim"
	"vwchar/internal/telemetry"
)

func main() {
	duration := flag.Float64("duration", 300, "run length in seconds")
	seed := flag.Uint64("seed", 42, "experiment seed")
	ttl := flag.Float64("ttl", 1, "cache TTL in seconds (short, so the flash crowd rides over expiries)")
	herdScale := flag.Float64("herd-scale", 2, "rate multiplier on the hot-key-expiry scenario (pushes the DB into queueing so fills widen)")
	flag.Parse()

	// The herd experiment concentrates the heat: few categories and
	// regions make the search fragments genuinely hot, and a small
	// buffer pool keeps DB fills slow enough that a flash crowd lands
	// inside the fill window of an expired key.
	hotset := vwchar.DefaultDataset()
	hotset.Categories = 5
	hotset.Regions = 8
	hotset.BufferPages = 250

	runOne := func(loadName string, rateScale float64, mix vwchar.MixKind, dataset vwchar.DatasetConfig, cache *vwchar.CacheSpec, queue *vwchar.QueueSpec) *vwchar.Result {
		cfg := vwchar.DefaultConfig(vwchar.Virtualized, mix)
		cfg.Duration = sim.Seconds(*duration)
		cfg.Seed = *seed
		cfg.Dataset = dataset
		spec, err := vwchar.LoadScenario(loadName)
		if err != nil {
			log.Fatal(err)
		}
		spec.Rate *= rateScale
		cfg.Load = &spec
		cfg.Cache = cache
		cfg.Queue = queue
		if loadName == "hot-key-expiry" {
			// Two machines, round-robin placement: web + cache on
			// machine 0, DB on machine 1. Fault injection can then limp
			// the DB host without touching the serving tiers.
			cfg.Topology = &vwchar.Topology{Machines: 2}
		}
		if cache != nil {
			// Crash the cache in the middle of the flash crowd: the
			// restart is a cold cache, so the whole crowd mass-misses at
			// once — the synchronized herd the leases exist for. The DB
			// host limps (4x CPU demand) through the same window, so the
			// fall-through storm lands on a DB that is already queueing
			// and fill windows stretch.
			cfg.Faults = &vwchar.FaultSchedule{
				CacheCrash: &vwchar.FaultComponent{AtSeconds: 180, MTTRSeconds: 2},
				SlowNode:   &vwchar.FaultComponent{AtSeconds: 170, MTTRSeconds: 80, Value: 4, Targets: []int{1}},
			}
		}
		if err := cfg.Validate(); err != nil {
			log.Fatal(err)
		}
		res, err := vwchar.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	herdSpec := func(leases bool) *vwchar.CacheSpec {
		s := vwchar.DefaultCacheSpec()
		s.TTLSeconds = *ttl
		s.Leases = leases
		return &s
	}

	fmt.Println("=== 1. Thundering herd: hot-key expiry under a flash crowd ===")
	fmt.Println()
	baseline := runOne("hot-key-expiry", *herdScale, vwchar.MixBrowsing, hotset, nil, nil)
	noLease := runOne("hot-key-expiry", *herdScale, vwchar.MixBrowsing, hotset, herdSpec(false), nil)
	withLease := runOne("hot-key-expiry", *herdScale, vwchar.MixBrowsing, hotset, herdSpec(true), nil)

	aNo := vwchar.AnalyzeCache(noLease)
	aLease := vwchar.AnalyzeCache(withLease)

	fmt.Printf("no cache:      p95 %6.1f ms, DB cpu %.3g cyc/2s (peak %.3g)\n",
		baseline.P95RespTime*1e3, baseline.Resource(vwchar.TierDB, vwchar.CPU).Mean(), baseline.Resource(vwchar.TierDB, vwchar.CPU).Max())
	fmt.Printf("cache:         p95 %6.1f ms, DB cpu %.3g cyc/2s (peak %.3g)\n",
		noLease.P95RespTime*1e3, noLease.Resource(vwchar.TierDB, vwchar.CPU).Mean(), noLease.Resource(vwchar.TierDB, vwchar.CPU).Max())
	fmt.Printf("cache+leases:  p95 %6.1f ms, DB cpu %.3g cyc/2s (peak %.3g)\n",
		withLease.P95RespTime*1e3, withLease.Resource(vwchar.TierDB, vwchar.CPU).Mean(), withLease.Resource(vwchar.TierDB, vwchar.CPU).Max())
	fmt.Println()
	fmt.Print("without leases: ")
	must(aNo.Write(os.Stdout))
	fmt.Print("with leases:    ")
	must(aLease.Write(os.Stdout))
	fmt.Println()
	// The knee is localized: the herd lives in the fault window (DB
	// host limping from 170 s, cache cold-restarted at 180 s), so the
	// whole-run p95 dilutes it. Compare the windowed p95 there.
	herdP95 := func(r *vwchar.Result) float64 {
		s := r.Telemetry.ByName(telemetry.LatencyP95)
		peak := 0.0
		for i := 0; i < s.Len(); i++ {
			if t := s.TimeAt(i); t >= 170 && t <= 255 && s.At(i) > peak {
				peak = s.At(i)
			}
		}
		return peak
	}
	if aNo.StampedeFetches > 0 {
		cut := 1 - float64(aLease.StampedeFetches)/float64(aNo.StampedeFetches)
		fmt.Printf("leases cut redundant herd fetches %d -> %d (%.0f%%); herd-window p95 %.0f ms -> %.0f ms\n",
			aNo.StampedeFetches, aLease.StampedeFetches, cut*100, herdP95(noLease), herdP95(withLease))
	}
	fmt.Println()

	fmt.Println("=== 2. Per-interaction cache attribution (leased run) ===")
	fmt.Println()
	fmt.Printf("%-24s %8s %9s %9s %10s\n", "interaction", "count", "mean ms", "p95 ms", "hit ratio")
	for _, il := range withLease.PerInteraction {
		if il.Count == 0 {
			continue
		}
		ratio := "      -"
		if looked := il.CacheHits + il.CacheMisses; looked > 0 {
			ratio = fmt.Sprintf("%6.1f%%", 100*float64(il.CacheHits)/float64(looked))
		}
		fmt.Printf("%-24s %8d %9.1f %9.1f %10s\n", il.Kind, il.Count, il.MeanMs, il.P95Ms, ratio)
	}
	fmt.Println()

	fmt.Println("=== 3. Write-behind backlog: 10x write burst ===")
	fmt.Println()
	// A deliberately slow drain (small batches, 2 s apart) so the burst
	// visibly outruns the replay capacity and the backlog builds.
	slowDrain := vwchar.DefaultQueueSpec()
	slowDrain.BatchSize = 4
	slowDrain.DrainEveryMillis = 2000

	direct := runOne("backlog-drain", 2, vwchar.MixBidding, vwchar.DefaultDataset(), nil, nil)
	queued := runOne("backlog-drain", 2, vwchar.MixBidding, vwchar.DefaultDataset(), nil, &slowDrain)
	aQ := vwchar.AnalyzeCache(queued)

	fmt.Printf("direct writes: p95 %6.1f ms\n", direct.P95RespTime*1e3)
	fmt.Printf("write-behind:  p95 %6.1f ms\n", queued.P95RespTime*1e3)
	fmt.Printf("queue: %d published / %d drained (%d overflows, %d redeliveries)\n",
		aQ.Published, aQ.Drained, aQ.Overflows, aQ.Redeliveries)
	fmt.Printf("backlog: peak depth %d writes, max lag %.0f ms, drained in %.0f s after the peak\n",
		aQ.PeakDepth, aQ.MaxLagMs, aQ.BacklogDrainSec)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
