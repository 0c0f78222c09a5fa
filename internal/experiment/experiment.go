// Package experiment assembles and runs the paper's experiments: the
// RUBiS three-tier system under a chosen client mix, deployed either in
// VMs on one Xen host (Section 4.1) or on two physical servers (Section
// 4.2), profiled by the sysstat collector for 600 two-second samples.
//
// Both deployments assemble through one path in Run: the deployment
// builder returns the same instance value for each consolidation pair
// (web cluster, DB tier, optional cache and queue nodes, collector
// targets, end-of-run accounting), and each optional feature is wired
// in one block. The order is part of the determinism contract:
//
//   - construction and kernel scheduling: per pair, dataset attach,
//     then guests, then DB servers before web servers, then aux tiers,
//     then the driver, with the guard wrapping the frontend; then
//     Injector.Start, HealthMonitor.Start, the hazard, the overload
//     controller, the backfill boot delay, collector.Start, and the
//     drivers' Start;
//   - window series, per recorder (registration order is CSV column
//     order): core, replicas, fault, degradation, cache, queue;
//   - window hooks on the collector ticker: every driver's
//     RotateWindow in driver order, then the hazard, the overload
//     controller, the autoscaler;
//   - sweep scalars (Result.Scalars): the five core metrics
//     (MetricThroughput … MetricErrors), then each block's after-run
//     closure's (sessions, scaling, request outcomes with degraded,
//     hazard, brownout, cache, queue), then the four resource means
//     (MetricCPU, MetricMem, MetricDisk, MetricNet) of each of
//     Result.Tiers, in that order.
package experiment

import (
	"fmt"

	"vwchar/internal/cachetier"
	"vwchar/internal/faults"
	"vwchar/internal/load"
	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/sysstat"
	"vwchar/internal/telemetry"
	"vwchar/internal/tiers"
	"vwchar/internal/timeseries"
	"vwchar/internal/xen"
)

// Env selects the deployment.
type Env string

// Deployments.
const (
	// Virtualized runs both tiers in VMs on one Xen host (paper §4.1).
	Virtualized Env = "virtualized"
	// Physical runs each tier on its own bare-metal server (paper §4.2).
	Physical Env = "physical"
)

// MixKind selects the client request composition.
type MixKind string

// The five compositions the paper tested.
const (
	MixBrowsing MixKind = "browsing"
	MixBidding  MixKind = "bidding"
	Mix30Browse MixKind = "30/70"
	Mix50Browse MixKind = "50/50"
	Mix70Browse MixKind = "70/30"
)

// Model returns the behaviour model for the mix.
func (m MixKind) Model() rubis.Model {
	switch m {
	case MixBrowsing:
		return rubis.BrowsingMix()
	case MixBidding:
		return rubis.BiddingMix()
	case Mix30Browse:
		return rubis.NewCompositeMix(0.3)
	case Mix50Browse:
		return rubis.NewCompositeMix(0.5)
	case Mix70Browse:
		return rubis.NewCompositeMix(0.7)
	default:
		panic(fmt.Sprintf("experiment: unknown mix %q", m))
	}
}

// Config parameterizes one run. The zero value is not runnable; use
// DefaultConfig.
type Config struct {
	Environment Env
	Mix         MixKind
	// Clients is the closed-loop population (paper: 1000).
	Clients int
	// Duration is the profiled window (paper: ~20 min -> 600 samples).
	Duration sim.Time
	Seed     uint64
	Dataset  rubis.DatasetConfig
	// DatasetSeed, when non-zero, pins the dataset-population seed
	// instead of deriving it from Seed. Runs sharing a DatasetSeed (and
	// Dataset scale) populate one immutable golden snapshot and attach
	// copy-on-write views, so replications skip population entirely.
	// Zero keeps the historical per-run derivation: each run populates
	// its own dataset, owns it, and recycles its pages when it ends.
	DatasetSeed uint64
	// KeepFullCatalog records all 182 metrics per target, not just the
	// headline figure series.
	KeepFullCatalog bool
	// XenParams overrides the hypervisor cost model (nil: calibrated
	// defaults). Used by ablation studies, e.g. zeroing the split-driver
	// costs to isolate dom0's I/O backend share. Virtualized only.
	XenParams *xen.Params
	// Pairs co-locates this many independent RUBiS instances (web VM +
	// DB VM each) on the single virtualized host, up to the testbed's
	// ten-VM limit. Zero or one means the paper's single-instance setup;
	// values above one drive the consolidation study. Virtualized only.
	Pairs int
	// Load, when non-nil, replaces the paper's closed-loop client
	// population with the open-loop workload generator the spec
	// describes (arrival process + session lifecycle); Clients is then
	// ignored. Nil preserves the paper's fixed-population behaviour
	// byte for byte.
	Load *load.Spec
	// Topology, when non-nil, replaces the paper's fixed web-VM/DB-VM
	// pair with a replicated cluster: N web replicas behind a load
	// balancer, a DB primary with optional read replicas, explicit
	// VM-to-machine placement, and an optional autoscaler. Nil — or a
	// degenerate 1-web/1-DB/1-machine topology — reproduces the paper's
	// single-pair assembly byte for byte. Virtualized only (the physical
	// testbed is two fixed servers); incompatible with Pairs > 1.
	Topology *tiers.Topology
	// Faults, when non-nil, injects the schedule's crash/degraded-mode
	// timeline into the run (expanded deterministically from Seed). A
	// non-empty schedule is virtualized only and incompatible with
	// Pairs > 1. Nil injects nothing and leaves the serving path
	// byte-identical.
	Faults *faults.Schedule
	// Resilience, when non-nil, wraps dispatch in a guard (timeouts,
	// retries, optional breaker) and starts health checks driving
	// replica ejection and DB primary failover. Nil leaves the serving
	// path untouched — faults without resilience show the unprotected
	// baseline. Its Brownout controller is virtualized only and
	// incompatible with Pairs > 1 (it reads one pair's cluster).
	Resilience *faults.ResilienceSpec
	// Cache, when non-nil, deploys a memcache-like cache VM: cacheable
	// reads consult it first and fall through to the DB on a miss.
	// Virtualized only; incompatible with Pairs > 1. Nil leaves the
	// serving path byte-identical.
	Cache *cachetier.CacheSpec
	// Queue, when non-nil, deploys a write-behind queue VM: write
	// interactions publish their query chains to the broker and complete
	// on the ack, with a periodic batched drain replaying them to the DB
	// primary. Virtualized only; incompatible with Pairs > 1. Nil leaves
	// the serving path byte-identical.
	Queue *cachetier.QueueSpec
}

// DefaultConfig returns the paper's experimental setup for env and mix.
func DefaultConfig(env Env, mix MixKind) Config {
	return Config{
		Environment: env,
		Mix:         mix,
		Clients:     1000,
		Duration:    1200 * sim.Second,
		Seed:        42,
		Dataset:     rubis.DefaultDataset(),
	}
}

// Tier names used for collector targets and figure panels.
const (
	TierWeb   = "webapp"
	TierDB    = "mysql"
	TierDom0  = "dom0"
	TierCache = "memcache"
	TierQueue = "wqueue"
)

// PairStat is the per-instance outcome of a consolidated run.
type PairStat struct {
	Completed    uint64
	MeanRespTime float64
	P95RespTime  float64
}

// ScalingStats summarizes the autoscaler's run: how often it acted,
// how far it grew, and how long the first scale-up took from the start
// of the run — the flash-crowd "time to scale" headline.
type ScalingStats struct {
	ScaleUps     int
	ScaleDowns   int
	PeakReplicas int
	// FirstUpAt is the activation instant of the first scale-up (boot
	// delay included); zero when the autoscaler never fired.
	FirstUpAt sim.Time
}

// RequestStats splits issued requests by outcome. The invariant
// Issued = Served + TimedOut + Shed + Failed + Degraded + InFlight
// always holds (InFlight is demand still in the pipe when the run
// ended).
type RequestStats struct {
	Issued   uint64
	Served   uint64
	TimedOut uint64
	Shed     uint64
	Failed   uint64
	// Degraded counts requests deliberately answered degraded by the
	// overload controller (brownout drops and over-bound fast-fails).
	Degraded uint64
	InFlight uint64
}

// Availability is served over concluded demand, served / (issued -
// in-flight), and 1 when nothing concluded.
func (rs *RequestStats) Availability() float64 {
	if concluded := rs.Issued - rs.InFlight; concluded > 0 {
		return float64(rs.Served) / float64(concluded)
	}
	return 1
}

// Scalar is one named run-level number; the runner aggregates each
// across a point's replications.
type Scalar struct {
	Name  string
	Value float64
}

// Core scalar names: the first five of every run's Scalars.
const (
	MetricThroughput = "throughput_rps"
	MetricWriteFrac  = "write_fraction"
	MetricRespMean   = "resp_mean_ms"
	MetricRespP95    = "resp_p95_ms"
	MetricErrors     = "errors"
)

// MetricCPU, MetricMem, MetricDisk and MetricNet name a tier's
// resource means, the last scalars of every run; use these instead of
// hand-concatenating metric names so a typo is a compile-time symbol
// error, not a silent zero.
func MetricCPU(tier string) string { return "cpu_" + tier }

// MetricMem names a tier's mean used memory (MB).
func MetricMem(tier string) string { return "mem_" + tier + "_mb" }

// MetricDisk names a tier's mean disk traffic (KB/2s).
func MetricDisk(tier string) string { return "disk_" + tier + "_kb" }

// MetricNet names a tier's mean network traffic (KB/2s).
func MetricNet(tier string) string { return "net_" + tier + "_kb" }

// Result is one completed run. It is plain data: nothing reachable
// from it reaches the run's kernel, drivers, telemetry recorders,
// dataset view or engine, so a sweep holding every finished Result
// holds their numbers, not their simulations. Its numbers sit in three
// places: Resources, Telemetry and Scalars.
type Result struct {
	Config Config
	// Resources is the collector's series set: per target in Tiers
	// order, the four headline series (Resource reads them), then the
	// full catalog as "<target>/<metric>" when KeepFullCatalog is set.
	Resources *timeseries.Set

	// PairStats has one entry per co-located RUBiS instance (length 1
	// for the paper's default setup).
	PairStats []PairStat

	// Driver outcomes.
	Completed     uint64
	Errors        uint64
	WriteFraction float64
	MeanRespTime  float64
	P95RespTime   float64
	WebGrowths    int

	// Virtualized-only accounting.
	Attribution     xen.Dom0Attribution
	GuestPhysCycles float64
	PerfFinal       []xen.PerfCounter
	// Dom0BuffersMB is dom0's final backend-buffer gauge (grant pools
	// and netback/blkback rings), the I/O-attributed share of its RAM.
	Dom0BuffersMB float64

	// Physical-only accounting (cumulative host CPU cycles).
	WebPMCycles, DBPMCycles float64

	// Interactions tallies per type.
	Interactions map[rubis.Interaction]uint64

	// Telemetry is the primary driver's windowed application-metrics
	// series (per-window latency quantiles, throughput, in-flight
	// concurrency, session churn), rotated on the collector's ticker so
	// every series shares the resource series' 2-second time axis. Both
	// loops record the same series through the one tiers.Driver; the
	// churn series stay zero in the closed loop, whose clients never
	// leave. For consolidated runs it covers instance 0, matching the
	// headline response-time scalars.
	Telemetry *timeseries.Set

	// Sessions is the open-loop session-churn accounting: every
	// driver's Sessions, summed across co-located instances. It is nil
	// for closed-loop runs (tiers.NewDriver), whose drivers keep it zero.
	Sessions *tiers.SessionStats

	// Tiers lists the collector targets in registration order — the
	// classic {webapp, mysql, dom0} for degenerate runs, per-replica
	// targets plus tier aggregates for cluster topologies.
	Tiers []string

	// ScaleEvents is the web cluster's scale-event log (boot, up, down)
	// in time order; empty without an autoscaler.
	ScaleEvents []tiers.ScaleEvent
	// Scaling summarizes the scale events; nil for runs without a
	// cluster topology.
	Scaling *ScalingStats
	// ReplicaServed counts dispatched requests per web replica slot;
	// nil for degenerate runs.
	ReplicaServed []uint64

	// ServedHist is the primary driver's run-level response-time
	// histogram over every served response; AbandonedHist is the subset
	// whose latency drove its session away. Together they split SLO debt
	// into served-slow and driven-away (characterize.AnalyzeScaling).
	// Both are copies taken at the end of the run.
	ServedHist, AbandonedHist *telemetry.Hist

	// Requests splits issued requests by outcome, summed across
	// instances; nil unless faults or resilience were configured.
	Requests *RequestStats
	// Guard snapshots the primary instance's guard counters; nil
	// without a Resilience spec.
	Guard *tiers.GuardStats
	// Failovers is the DB promotion log; empty without failovers.
	Failovers []tiers.FailoverEvent
	// FaultTimeline is the expanded fault schedule the run executed;
	// nil without a Faults schedule.
	FaultTimeline []faults.Event
	// Hazard is the load-coupled crash hazard's accounting; nil unless
	// Faults.Hazard was configured (non-nil even when it never fired).
	Hazard *tiers.HazardStats
	// Brownout is the overload controller's accounting; nil unless
	// Resilience.Brownout was configured.
	Brownout *tiers.BrownoutStats
	// Cache snapshots the cache node's accounting; nil without a Cache
	// spec.
	Cache *tiers.CacheStats
	// Queue snapshots the write-behind broker's accounting; nil without
	// a Queue spec.
	Queue *tiers.QueueStats
	// Scalars are every run-level number the runner aggregates, in the
	// order the package doc states: the core metrics, the configured
	// features' numbers, then the per-tier resource means.
	Scalars []Scalar
	// PerInteraction breaks the primary driver's latency down by RUBiS
	// interaction kind, with per-kind cache outcomes when a cache tier
	// was deployed. Always populated, in rubis dense-index order.
	PerInteraction []InteractionLatency
}

// InteractionLatency is one RUBiS interaction kind's run-level latency
// and cache accounting.
type InteractionLatency struct {
	Kind        string
	Count       uint64
	MeanMs      float64
	P95Ms       float64
	CacheHits   uint64
	CacheMisses uint64
}

// Resource returns tier's headline series for res: per-2s CPU cycles,
// used memory (MB), per-2s disk read+write (KB) or network rx+tx (KB).
// It is nil for a tier the run did not monitor.
func (r *Result) Resource(tier string, res sysstat.Resource) *timeseries.Series {
	return r.Resources.ByName(res.Series(tier))
}

// Run executes the configured experiment to completion.
//
// Both deployments assemble through the same path: the deployment
// builder returns one instance per pair, and each optional feature is
// wired in one block below, in the fixed order the package doc states.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	src := rng.NewSource(cfg.Seed)
	res := &Result{Config: cfg}
	var topo tiers.Topology
	if cfg.Topology != nil {
		topo = *cfg.Topology
	}
	topo = topo.Normalized()

	// A run attaches copy-on-write views of sealed golden datasets. A
	// dataset pinned by DatasetSeed comes from the process-wide snapshot
	// cache, populated by the first run that asks for it and shared by
	// every later one. A dataset seeded from the run's own Seed is
	// never asked for again, so the run populates it privately and
	// closes it on exit, handing its pages back for the next run's
	// population. Views go back to their snapshot when the run is done,
	// every driver's streams to rng's free list, and its recorder's
	// reservoir and kind histograms and its parked sessions to their
	// pools. That is safe because the Result keeps no reference into the
	// run: the series sets it takes reach only their series, and its
	// histograms are copies.
	var apps []*rubis.App
	var owned []*rubis.Snapshot
	var drivers []*tiers.Driver
	defer func() {
		for _, drv := range drivers {
			drv.Release()
		}
		for _, a := range apps {
			a.Release()
		}
		for _, s := range owned {
			s.Close()
		}
	}()
	attach := func(stream string, pair int) (*rubis.App, error) {
		var snap *rubis.Snapshot
		var err error
		switch {
		case cfg.DatasetSeed == 0:
			snap, err = rubis.NewSnapshot(cfg.Dataset, src.SeedFor(stream))
			if err == nil {
				owned = append(owned, snap)
			}
		case pair == 0:
			// Pair 0 (and the physical env) share the pinned seed
			// directly, so a sweep's replications — and both
			// environments — reuse one golden.
			snap, err = rubis.SharedSnapshot(cfg.Dataset, cfg.DatasetSeed)
		default:
			snap, err = rubis.SharedSnapshot(cfg.Dataset, rng.NewSource(cfg.DatasetSeed).SeedFor(stream))
		}
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", stream, err)
		}
		a := snap.Attach()
		apps = append(apps, a)
		return a, nil
	}
	deploy := physical(k, src, attach)
	if cfg.Environment == Virtualized {
		deploy = virtualized(k, cfg, topo, attach)
	}

	// One instance and driver per pair. Each driver gets its own RNG
	// source and, open-loop, its own arrival process (they are
	// stateful); with a Resilience spec its dispatch path is wrapped in a
	// guard (timeouts/retries/breaker), without one the frontend is
	// untouched.
	model, costs := cfg.Mix.Model(), rubis.DefaultCostParams()
	var insts []*instance
	var guards []*tiers.Guard
	var collector *sysstat.Collector
	for p := 0; p < max(cfg.Pairs, 1); p++ {
		inst, err := deploy(p)
		if err != nil {
			return nil, err
		}
		insts = append(insts, inst)
		if p == 0 {
			// The collector takes its baseline snapshot now, before the
			// co-located pairs' guests exist.
			collector = sysstat.NewCollector(k, cfg.KeepFullCatalog, inst.targets...)
		}
		drvSrc := rng.NewSource(cfg.Seed + uint64(p)*7919)
		var web tiers.Frontend = inst.cluster
		if cfg.Resilience != nil {
			g := tiers.NewGuard(k, web, *cfg.Resilience, drvSrc.Stream("resilience-jitter"))
			guards = append(guards, g)
			web = g
		}
		if cfg.Load == nil {
			drivers = append(drivers, tiers.NewDriver(k, inst.app, model, web, costs, cfg.Clients, drvSrc))
			continue
		}
		drv, err := tiers.NewOpenDriver(k, inst.app, model, web, costs, cfg.Load, drvSrc)
		if err != nil {
			return nil, fmt.Errorf("experiment: building load spec: %w", err)
		}
		drivers = append(drivers, drv)
	}

	// Rotate every driver's telemetry window on the collector's
	// sampling ticker: latency windows and resource samples close at the
	// same instants, in deterministic driver order. The window actors
	// the feature blocks hook run after the rotation, so each sees the
	// window that just closed.
	inst, primary := insts[0], drivers[0].Recorder()
	for _, drv := range drivers {
		collector.OnSample(drv.RotateWindow)
	}
	// after fills each feature's Result fields once the run is over.
	var after []func()

	// Open-loop session churn, summed across instances.
	if cfg.Load != nil {
		after = append(after, func() {
			st := &tiers.SessionStats{}
			for _, drv := range drivers {
				s := drv.Sessions
				st.Offered += s.Offered
				st.Started += s.Started
				st.Finished += s.Finished
				st.Abandoned += s.Abandoned
				st.PeakActive += s.PeakActive
			}
			res.Sessions = st
			res.Scalars = append(res.Scalars,
				Scalar{"sessions_started", float64(st.Started)},
				Scalar{"sessions_finished", float64(st.Finished)},
				Scalar{"sessions_abandoned", float64(st.Abandoned)},
				Scalar{"sessions_peak", float64(st.PeakActive)})
		})
	}

	// Cluster topologies: the active-replica gauge and the scaling and
	// per-replica accounting.
	if !topo.IsDegenerate() {
		primary.Gauge(telemetry.Replicas, "replicas", func() float64 { return float64(inst.cluster.ActiveReplicas()) })
		after = append(after, func() {
			res.ScaleEvents = inst.cluster.Events
			st := &ScalingStats{PeakReplicas: inst.cluster.PeakActive()}
			for _, e := range inst.cluster.Events {
				switch e.Kind {
				case "up":
					st.ScaleUps++
					if st.FirstUpAt == 0 {
						st.FirstUpAt = e.At
					}
				case "down":
					st.ScaleDowns++
				}
			}
			res.Scaling = st
			res.Scalars = append(res.Scalars,
				Scalar{"replicas_peak", float64(st.PeakReplicas)},
				Scalar{"scale_ups", float64(st.ScaleUps)},
				Scalar{"scale_downs", float64(st.ScaleDowns)},
				Scalar{"time_to_scale_s", st.FirstUpAt.Sec()})
			for _, w := range inst.cluster.Replicas {
				res.ReplicaServed = append(res.ReplicaServed, w.Dispatched)
			}
		})
	}

	// Fault injection: the timeline is expanded deterministically from
	// the run seed before the kernel starts, so injection consumes no
	// randomness at run time.
	if cfg.Faults != nil {
		tg := faults.Targets{Webs: topo.MaxWebReplicas, DBs: 1 + topo.DBReadReplicas, Machines: topo.Machines}
		if inst.cacheSrv != nil {
			tg.Caches = 1
		}
		res.FaultTimeline = cfg.Faults.Expand(cfg.Duration, tg, src)
		tiers.NewInjector(k, inst.cluster, inst.dbc, inst.cacheSrv, topo, res.FaultTimeline).Start()
	}

	// Resilience, the reaction side: the guards wrap the drivers above;
	// the health monitor drives replica ejection/readmission and DB
	// primary failover.
	if cfg.Resilience != nil {
		monitor := tiers.NewHealthMonitor(k, inst.cluster, inst.dbc, *cfg.Resilience)
		monitor.Start()
		after = append(after, func() {
			stats := guards[0].Stats
			res.Guard = &stats
			res.Failovers = monitor.Failovers
		})
	}

	// Request outcomes, with faults or resilience configured: every
	// driver's timeouts, sheds, failures, retries and availability per
	// window, and the issued-request split for the run. The coupling
	// blocks below set hazard and overload before the run; the split
	// reports degraded answers when either is configured.
	var hazard *tiers.Hazard
	var overload *tiers.Overload
	if cfg.Faults != nil || cfg.Resilience != nil {
		for i, drv := range drivers {
			rec := drv.Recorder()
			retries := func() uint64 { return 0 }
			if cfg.Resilience != nil {
				retries = guards[i].RetryCount
			}
			rec.Counter(telemetry.Timeouts, "requests/window", func() uint64 { return drv.TimedOut })
			rec.Counter(telemetry.Sheds, "requests/window", func() uint64 { return drv.Shed })
			rec.Counter(telemetry.Failures, "requests/window", func() uint64 { return drv.Failed })
			rec.Counter(telemetry.Retries, "retries/window", retries)
			rec.Gauge(telemetry.Availability, "fraction", telemetry.WindowShare(
				func() uint64 { return drv.Completed },
				func() uint64 { return drv.TimedOut + drv.Shed + drv.Failed }, 1))
		}
		after = append(after, func() {
			rs := &RequestStats{}
			for _, drv := range drivers {
				rs.Issued += drv.Issued
				rs.Served += drv.Completed
				rs.TimedOut += drv.TimedOut
				rs.Shed += drv.Shed
				rs.Failed += drv.Failed
				rs.Degraded += drv.Degraded
			}
			rs.InFlight = rs.Issued - rs.Served - rs.TimedOut - rs.Shed - rs.Failed - rs.Degraded
			res.Requests = rs
			// Retries stay 0 without a guard.
			var retries uint64
			if res.Guard != nil {
				retries = res.Guard.Retries
			}
			res.Scalars = append(res.Scalars,
				Scalar{"timed_out", float64(rs.TimedOut)},
				Scalar{"shed", float64(rs.Shed)},
				Scalar{"failed", float64(rs.Failed)},
				Scalar{"retries", float64(retries)},
				Scalar{"availability", rs.Availability()},
				Scalar{"failovers", float64(len(res.Failovers))})
			if hazard != nil || overload != nil {
				res.Scalars = append(res.Scalars, Scalar{"degraded", float64(rs.Degraded)})
			}
		})
	}

	// The endogenous coupling layer: the load-reading crash hazard and
	// the brownout controller both evaluate at window boundaries, so
	// their in-run decisions are as deterministic as the pre-expanded
	// timeline. Hazard crashes first, then the controller re-levels.
	if cfg.Faults != nil && cfg.Faults.Hazard != nil {
		hazard = tiers.NewHazard(k, inst.cluster, *cfg.Faults.Hazard, src.Stream("fault-hazard"))
		collector.OnSample(hazard.OnSample)
		after = append(after, func() {
			stats := hazard.Stats
			res.Hazard = &stats
			res.Scalars = append(res.Scalars, Scalar{"hazard_crashes", float64(len(stats.Crashes))})
		})
	}
	if cfg.Resilience != nil && cfg.Resilience.Brownout != nil {
		overload = tiers.NewOverload(inst.cluster, *cfg.Resilience.Brownout)
		inst.cluster.SetOverload(overload)
		for _, g := range guards {
			g.SetOverload(overload)
		}
		collector.OnSample(overload.OnSample)
		after = append(after, func() {
			stats := overload.Stats
			res.Brownout = &stats
			res.Scalars = append(res.Scalars,
				Scalar{"brownout_peak_level", float64(stats.PeakLevel)},
				Scalar{"brownout_dropped", float64(stats.Dropped)})
		})
	}
	// Degraded answers are deliberate fast responses, so they count in
	// their own series, not against availability; either coupling
	// feature registers all three. The hazard rate sampled at a boundary
	// is the window that closed at the previous one: gauges sample
	// before the hazard's own hook runs.
	if hazard != nil || overload != nil {
		level, rate := func() float64 { return 0 }, func() float64 { return 0 }
		if overload != nil {
			level = func() float64 { return float64(overload.Level()) }
		}
		if hazard != nil {
			rate = hazard.WindowRate
		}
		for _, drv := range drivers {
			rec := drv.Recorder()
			rec.Counter(telemetry.Degraded, "requests/window", func() uint64 { return drv.Degraded })
			rec.Gauge(telemetry.BrownoutLevel, "level", level)
			rec.Gauge(telemetry.HazardRate, "crashes/window", rate)
		}
	}

	// The autoscaler decides last at each boundary. Emergency backfill
	// after an ejection pays the same provisioning delay as a scale-up.
	if topo.Autoscaler != nil {
		inst.cluster.SetBackfillBoot(sim.Seconds(topo.Autoscaler.BootSeconds))
		collector.OnSample(tiers.NewAutoscaler(inst.cluster, primary.Series(), *topo.Autoscaler).OnSample)
	}

	// The cache tier. Store stats survive cold restarts, so the
	// differenced counters stay monotonic.
	if cs := inst.cacheSrv; cs != nil {
		primary.Gauge(telemetry.CacheHitRatio, "fraction", telemetry.WindowShare(
			func() uint64 { return cs.Snapshot().Hits },
			func() uint64 { return cs.Snapshot().Misses }, 0))
		primary.Counter(telemetry.CacheStampedes, "fetches/window", func() uint64 { return cs.Snapshot().Stampedes })
		after = append(after, func() {
			stats := cs.Snapshot()
			res.Cache = &stats
			res.Scalars = append(res.Scalars,
				Scalar{"cache_hit_ratio", stats.HitRatio()},
				Scalar{"cache_stampedes", float64(stats.Stampedes)},
				Scalar{"cache_evictions", float64(stats.Evictions)})
			for idx := range res.PerInteraction {
				il := &res.PerInteraction[idx]
				il.CacheHits, il.CacheMisses = cs.KindCounts(uint8(idx))
			}
		})
	}

	// The write-behind queue tier.
	if qs := inst.queueSrv; qs != nil {
		primary.Gauge(telemetry.QueueDepth, "writes", func() float64 { return float64(qs.Depth()) })
		primary.Gauge(telemetry.QueueLag, "ms", func() float64 { return qs.LagMs(k.Now()) })
		after = append(after, func() {
			stats := qs.Snapshot()
			res.Queue = &stats
			res.Scalars = append(res.Scalars,
				Scalar{"queue_published", float64(stats.Published)},
				Scalar{"queue_peak_depth", float64(stats.PeakDepth)},
				Scalar{"queue_lag_max_ms", stats.MaxLagMs},
				Scalar{"queue_overflows", float64(stats.Overflows)})
		})
	}

	// Every series is registered; reserving the duration-derived window
	// count up front keeps rotation allocation-free for the whole run.
	windows := int(cfg.Duration / sysstat.SampleInterval)
	for _, drv := range drivers {
		drv.Recorder().ReserveWindows(windows)
	}
	collector.Start()
	for _, drv := range drivers {
		drv.Start()
	}
	k.Run(cfg.Duration)

	res.Resources = collector.Series()
	res.Tiers = make([]string, len(inst.targets))
	for i, t := range inst.targets {
		res.Tiers[i] = t.Name
	}
	for _, drv := range drivers {
		res.Completed += drv.Completed
		res.Errors += drv.Errors
		res.PairStats = append(res.PairStats, PairStat{
			Completed:    drv.Completed,
			MeanRespTime: drv.MeanResponseTime(),
			P95RespTime:  drv.ResponseTimeQuantile(0.95),
		})
	}
	for _, in := range insts {
		for _, w := range in.cluster.Replicas {
			res.WebGrowths += w.Growths()
		}
	}
	res.WriteFraction = drivers[0].WriteFraction()
	res.MeanRespTime = drivers[0].MeanResponseTime()
	res.P95RespTime = drivers[0].ResponseTimeQuantile(0.95)
	res.Telemetry = primary.Series()
	res.Interactions = drivers[0].InteractionCounts()
	hists := [2]telemetry.Hist{*primary.RunHist(), *primary.AbandonedHist()}
	res.ServedHist, res.AbandonedHist = &hists[0], &hists[1]
	for idx := 0; idx < rubis.NumInteractions; idx++ {
		h := primary.KindHist(idx)
		res.PerInteraction = append(res.PerInteraction, InteractionLatency{
			Kind:   rubis.Interaction(idx).String(),
			Count:  h.Count(),
			MeanMs: h.Mean() * 1e3,
			P95Ms:  h.Quantile(0.95) * 1e3,
		})
	}
	res.Scalars = append(make([]Scalar, 0, 5+4*len(res.Tiers)),
		Scalar{MetricThroughput, float64(res.Completed) / cfg.Duration.Sec()},
		Scalar{MetricWriteFrac, res.WriteFraction},
		Scalar{MetricRespMean, res.MeanRespTime * 1e3},
		Scalar{MetricRespP95, res.P95RespTime * 1e3},
		Scalar{MetricErrors, float64(res.Errors)})
	for _, fill := range after {
		fill()
	}
	for _, tier := range res.Tiers {
		res.Scalars = append(res.Scalars,
			Scalar{MetricCPU(tier), res.Resource(tier, sysstat.CPU).Mean()},
			Scalar{MetricMem(tier), res.Resource(tier, sysstat.RAM).Mean()},
			Scalar{MetricDisk(tier), res.Resource(tier, sysstat.Disk).Mean()},
			Scalar{MetricNet(tier), res.Resource(tier, sysstat.Net).Mean()})
	}
	inst.account(res)
	return res, nil
}
