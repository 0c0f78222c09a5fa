package main

import (
	"fmt"
	"math"

	"vwchar/internal/cachetier"
	"vwchar/internal/experiment"
	"vwchar/internal/faults"
	"vwchar/internal/load"
	"vwchar/internal/rubis"
	"vwchar/internal/runner"
	"vwchar/internal/sim"
	"vwchar/internal/tiers"
)

// workload is one benchmark input: a sweep built from the root seed.
// Scale 1 is the benchmark's size; tests pass a tiny scale, which
// shrinks clients, durations, replications and the dataset together.
// Workers is left for the caller to set.
type workload struct {
	name string
	spec func(seed uint64, scale float64) (runner.SweepSpec, error)
}

// datasetSeed pins the population seed of the shared golden dataset.
// Workloads that share one dataset all use this one, so -seed varies
// the clients, arrivals and faults but not the database; a dataset
// drawn per seed would move allocation by about 2% from seed to seed.
const datasetSeed = 1

// workloads lists the benchmark's workloads in run order. README.md
// and BENCHMARK.json give the reason for each.
var workloads = []workload{
	{"paper-grid", paperGrid},
	{"fresh-datasets", freshDatasets},
	{"open-flash", openFlash},
	{"cluster-chaos-cache", clusterChaosCache},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// paperGrid is the paper's experiment: both deployments × five mixes,
// 1000 closed-loop clients, every job on one shared golden dataset.
func paperGrid(seed uint64, scale float64) (runner.SweepSpec, error) {
	return runner.SweepSpec{
		Points: runner.FullGrid(func(c *experiment.Config) {
			c.Clients = scaled(1000, scale, 10)
			c.Duration = scaledSeconds(600, scale)
			c.Dataset = scaledDataset(scale)
			c.DatasetSeed = datasetSeed
		}),
		Replications: 1,
		RootSeed:     seed,
	}, nil
}

// freshDatasets is the same grid at a small load with the runner's
// default per-replication datasets, so every job populates and seals
// its own dataset.
func freshDatasets(seed uint64, scale float64) (runner.SweepSpec, error) {
	return runner.SweepSpec{
		Points: runner.FullGrid(func(c *experiment.Config) {
			c.Clients = scaled(20, scale, 5)
			c.Duration = scaledSeconds(20, scale)
			c.Dataset = scaledDataset(scale)
		}),
		Replications: scaled(4, scale, 1),
		RootSeed:     seed,
	}, nil
}

// openFlash is the catalog flash crowd at six sessions/s against the
// virtualized browsing stack: the one open-loop workload.
func openFlash(seed uint64, scale float64) (runner.SweepSpec, error) {
	spec, err := load.Scenario("flash-crowd")
	if err != nil {
		return runner.SweepSpec{}, err
	}
	spec.Rate = 6
	return runner.SweepSpec{
		Points: runner.LoadGrid(
			[]experiment.Env{experiment.Virtualized}, experiment.MixBrowsing,
			[]load.NamedSpec{{Name: "flash-crowd", Spec: spec}},
			func(c *experiment.Config) {
				c.Duration = scaledSeconds(900, scale)
				c.Dataset = scaledDataset(scale)
				c.DatasetSeed = datasetSeed
			}),
		Replications: scaled(8, scale, 1),
		RootSeed:     seed,
	}, nil
}

// clusterChaosCache runs three mixes on a replicated cluster with
// crashes, a DB failover, a cache cold restart, a leased cache and a
// write-behind queue. Fault instants scale with the run's duration so
// a tiny run still crosses every one of them.
func clusterChaosCache(seed uint64, scale float64) (runner.SweepSpec, error) {
	dur := scaledSeconds(1200, scale)
	at := func(s float64) float64 { return s * dur.Sec() / 1200 }
	mixes := []experiment.MixKind{experiment.MixBrowsing, experiment.Mix50Browse, experiment.MixBidding}
	return runner.SweepSpec{
		Points: runner.Grid([]experiment.Env{experiment.Virtualized}, mixes, func(c *experiment.Config) {
			c.Clients = scaled(600, scale, 10)
			c.Duration = dur
			c.Dataset = scaledDataset(scale)
			c.DatasetSeed = datasetSeed
			c.Topology = &tiers.Topology{
				WebReplicas:    2,
				MaxWebReplicas: 3,
				DBReadReplicas: 1,
				Machines:       2,
				LB:             tiers.LBJoinShortestQueue,
			}
			c.Faults = &faults.Schedule{
				WebCrash:   &faults.Component{MTTFSeconds: at(120), MTTRSeconds: at(10), Targets: []int{1}},
				DBCrash:    &faults.Component{AtSeconds: at(300), Targets: []int{0}},
				CacheCrash: &faults.Component{AtSeconds: at(600), MTTRSeconds: at(5)},
			}
			c.Resilience = &faults.ResilienceSpec{
				TimeoutMillis:         800,
				Retries:               2,
				BackoffMillis:         50,
				HealthEverySeconds:    1,
				EjectAfterChecks:      2,
				FailoverDetectSeconds: 2,
				Breaker:               &faults.BreakerSpec{ErrorThreshold: 0.5, WindowRequests: 32, OpenMillis: 500},
			}
			cache := cachetier.DefaultCacheSpec()
			cache.TTLSeconds = 8
			cache.Leases = true
			c.Cache = &cache
			queue := cachetier.DefaultQueueSpec()
			c.Queue = &queue
		}),
		Replications: scaled(2, scale, 1),
		RootSeed:     seed,
	}, nil
}

// scaled returns n·scale rounded, but at least floor (and n itself at
// scale 1).
func scaled(n int, scale, floor float64) int {
	return int(math.Max(floor, math.Round(float64(n)*scale)))
}

// scaledSeconds scales a simulated duration, keeping at least ten
// two-second collector windows.
func scaledSeconds(s, scale float64) sim.Time {
	return sim.Seconds(math.Max(20, math.Round(s*scale)))
}

// scaledDataset shrinks the default dataset for tiny runs; at scale 1
// it is the default dataset.
func scaledDataset(scale float64) rubis.DatasetConfig {
	d := rubis.DefaultDataset()
	if scale >= 1 {
		return d
	}
	d.Users = scaled(d.Users, scale, 400)
	d.ActiveItems = scaled(d.ActiveItems, scale, 120)
	d.OldItems = scaled(d.OldItems, scale, 240)
	d.BufferPages = scaled(d.BufferPages, scale, 64)
	return d
}
