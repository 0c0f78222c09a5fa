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
//     controller, the autoscaler.
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
	// copy-on-write views, so replications skip population entirely; see
	// runner.SweepSpec.SharedDatasets. Zero keeps the historical
	// per-run derivation (each run populates its own dataset stream) —
	// still served through the snapshot cache, just with per-run keys.
	DatasetSeed uint64 `json:",omitempty"`
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
	// baseline. Its Brownout controller is virtualized only.
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
	Issued   uint64 `json:"issued"`
	Served   uint64 `json:"served"`
	TimedOut uint64 `json:"timed_out"`
	Shed     uint64 `json:"shed"`
	Failed   uint64 `json:"failed"`
	// Degraded counts requests deliberately answered degraded by the
	// overload controller (brownout drops and over-bound fast-fails).
	Degraded uint64 `json:"degraded"`
	InFlight uint64 `json:"in_flight"`
}

// Result is one completed run.
type Result struct {
	Config    Config
	Collector *sysstat.Collector

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
	// every series shares the resource series' 2-second time axis. For
	// consolidated runs it covers instance 0, matching the headline
	// response-time scalars.
	Telemetry *telemetry.WindowSeries

	// Sessions is the open-loop session-churn accounting, summed across
	// co-located instances; nil for closed-loop runs.
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
	// PerInteraction breaks the primary driver's latency down by RUBiS
	// interaction kind, with per-kind cache outcomes when a cache tier
	// was deployed. Always populated, in rubis dense-index order.
	PerInteraction []InteractionLatency
}

// InteractionLatency is one RUBiS interaction kind's run-level latency
// and cache accounting.
type InteractionLatency struct {
	Kind        string  `json:"kind"`
	Count       uint64  `json:"count"`
	MeanMs      float64 `json:"mean_ms"`
	P95Ms       float64 `json:"p95_ms"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
}

// CPU returns the per-2s cycle demand series for tier ("webapp",
// "mysql", "dom0").
func (r *Result) CPU(tier string) *timeseries.Series { return r.Collector.CPU(tier) }

// Mem returns the used-memory series (MB).
func (r *Result) Mem(tier string) *timeseries.Series { return r.Collector.Mem(tier) }

// Disk returns the per-2s disk read+write series (KB).
func (r *Result) Disk(tier string) *timeseries.Series { return r.Collector.Disk(tier) }

// Net returns the per-2s network rx+tx series (KB).
func (r *Result) Net(tier string) *timeseries.Series { return r.Collector.Net(tier) }

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

	// Datasets come from the process-wide golden snapshot cache: the
	// first run for a (scale, seed) pair populates and seals it, and
	// every later run attaches a copy-on-write view in microseconds.
	// Views are returned to the snapshot's pool when the run is done
	// (results only hold aggregated numbers, never engine state), and
	// closed-loop client streams go back to rng's free list.
	var apps []*rubis.App
	var drivers []tiers.LoadGen
	defer func() {
		for _, drv := range drivers {
			if d, ok := drv.(*tiers.Driver); ok {
				d.Release()
			}
		}
		for _, a := range apps {
			a.Release()
		}
	}()
	attach := func(stream string, pair int) (*rubis.App, error) {
		seed := src.SeedFor(stream)
		if cfg.DatasetSeed != 0 {
			if pair == 0 {
				// Pair 0 (and the physical env) share the pinned seed
				// directly, so a sweep's replications — and both
				// environments — reuse one golden.
				seed = cfg.DatasetSeed
			} else {
				seed = rng.NewSource(cfg.DatasetSeed).SeedFor(stream)
			}
		}
		a, err := rubis.SharedApp(cfg.Dataset, seed)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", stream, err)
		}
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
		op, err := tiers.OpenParamsFromSpec(cfg.Load)
		if err != nil {
			return nil, fmt.Errorf("experiment: building load spec: %w", err)
		}
		drivers = append(drivers, tiers.NewOpenDriver(k, inst.app, model, web, costs, op, drvSrc))
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
		if inst.queueSrv != nil {
			tg.Queues = 1
		}
		res.FaultTimeline = cfg.Faults.Expand(cfg.Duration, tg, src)
		inj := tiers.NewInjector(k, inst.cluster, inst.dbc, topo, res.FaultTimeline)
		inj.SetAuxTiers(inst.cacheSrv, inst.queueSrv)
		inj.Start()
	}

	// Resilience, the reaction side: the guards wrap the drivers above;
	// the health monitor drives replica ejection/readmission and DB
	// primary failover.
	if cfg.Resilience != nil {
		monitor := tiers.NewHealthMonitor(k, inst.cluster, inst.dbc, *cfg.Resilience)
		monitor.SetQueue(inst.queueSrv)
		monitor.Start()
		after = append(after, func() {
			stats := guards[0].Stats
			res.Guard = &stats
			res.Failovers = monitor.Failovers
		})
	}

	// Request outcomes, with faults or resilience configured: every
	// driver's timeouts, sheds, failures, retries and availability per
	// window, and the issued-request split for the run.
	if cfg.Faults != nil || cfg.Resilience != nil {
		for i, drv := range drivers {
			rec, out := drv.Recorder(), drv.Outcomes
			retries := func() uint64 { return 0 }
			if cfg.Resilience != nil {
				retries = guards[i].RetryCount
			}
			rec.Counter(telemetry.Timeouts, "requests/window", func() uint64 { return out().TimedOut })
			rec.Counter(telemetry.Sheds, "requests/window", func() uint64 { return out().Shed })
			rec.Counter(telemetry.Failures, "requests/window", func() uint64 { return out().Failed })
			rec.Counter(telemetry.Retries, "retries/window", retries)
			rec.Gauge(telemetry.Availability, "fraction", telemetry.WindowShare(
				func() uint64 { return out().Served },
				func() uint64 { o := out(); return o.TimedOut + o.Shed + o.Failed }, 1))
		}
		after = append(after, func() {
			rs := &RequestStats{}
			for _, drv := range drivers {
				o := drv.Outcomes()
				rs.Issued += o.Issued
				rs.Served += o.Served
				rs.TimedOut += o.TimedOut
				rs.Shed += o.Shed
				rs.Failed += o.Failed
				rs.Degraded += o.Degraded
			}
			rs.InFlight = rs.Issued - rs.Served - rs.TimedOut - rs.Shed - rs.Failed - rs.Degraded
			res.Requests = rs
		})
	}

	// The endogenous coupling layer: the load-reading crash hazard and
	// the brownout controller both evaluate at window boundaries, so
	// their in-run decisions are as deterministic as the pre-expanded
	// timeline. Hazard crashes first, then the controller re-levels.
	var hazard *tiers.Hazard
	if cfg.Faults != nil && cfg.Faults.Hazard != nil {
		hazard = tiers.NewHazard(k, inst.cluster, *cfg.Faults.Hazard, src.Stream("fault-hazard"))
		collector.OnSample(hazard.OnSample)
		after = append(after, func() {
			stats := hazard.Stats
			res.Hazard = &stats
		})
	}
	var overload *tiers.Overload
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
			rec, out := drv.Recorder(), drv.Outcomes
			rec.Counter(telemetry.Degraded, "requests/window", func() uint64 { return out().Degraded })
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
		})
	}

	// Open-loop session churn, summed across instances.
	if cfg.Load != nil {
		after = append(after, func() {
			res.Sessions = &tiers.SessionStats{}
			for _, drv := range drivers {
				s := drv.(*tiers.OpenDriver).Sessions
				res.Sessions.Offered += s.Offered
				res.Sessions.Started += s.Started
				res.Sessions.Finished += s.Finished
				res.Sessions.Abandoned += s.Abandoned
				res.Sessions.PeakActive += s.PeakActive
			}
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

	res.Collector = collector
	for _, drv := range drivers {
		completed, errors := drv.Totals()
		res.Completed += completed
		res.Errors += errors
		res.PairStats = append(res.PairStats, PairStat{
			Completed:    completed,
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
	res.Tiers = collector.TargetNames()
	res.ServedHist, res.AbandonedHist = primary.RunHist(), primary.AbandonedHist()
	for idx := 0; idx < rubis.NumInteractions; idx++ {
		h := primary.KindHist(idx)
		res.PerInteraction = append(res.PerInteraction, InteractionLatency{
			Kind:   string(rubis.InteractionAt(idx)),
			Count:  h.Count(),
			MeanMs: h.Mean() * 1e3,
			P95Ms:  h.Quantile(0.95) * 1e3,
		})
	}
	for _, fill := range after {
		fill()
	}
	inst.account(res)
	return res, nil
}
