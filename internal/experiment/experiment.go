// Package experiment assembles and runs the paper's experiments: the
// RUBiS three-tier system under a chosen client mix, deployed either in
// VMs on one Xen host (Section 4.1) or on two physical servers (Section
// 4.2), profiled by the sysstat collector for 600 two-second samples.
package experiment

import (
	"fmt"

	"vwchar/internal/cachetier"
	"vwchar/internal/faults"
	"vwchar/internal/hw"
	"vwchar/internal/load"
	"vwchar/internal/osmodel"
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
	// costs to isolate dom0's I/O backend share.
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
	// timeline into the run (expanded deterministically from Seed).
	// Virtualized only; incompatible with Pairs > 1. Nil injects
	// nothing and leaves the serving path byte-identical.
	Faults *faults.Schedule
	// Resilience, when non-nil, wraps dispatch in a guard (timeouts,
	// retries, optional breaker) and starts health checks driving
	// replica ejection and DB primary failover. Nil leaves the serving
	// path untouched — faults without resilience show the unprotected
	// baseline.
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
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pairs := cfg.Pairs
	if pairs < 1 {
		pairs = 1
	}
	k := sim.NewKernel()
	src := rng.NewSource(cfg.Seed)
	model := cfg.Mix.Model()
	costs := rubis.DefaultCostParams()

	res := &Result{Config: cfg}
	// Datasets come from the process-wide golden snapshot cache: the
	// first run for a (scale, seed) pair populates and seals it, and
	// every later run attaches a copy-on-write view in microseconds.
	// Views are returned to the snapshot's pool when the run is done
	// (results only hold aggregated numbers, never engine state), and
	// closed-loop client streams go back to rng's free list.
	var attachedApps []*rubis.App
	var drivers []tiers.LoadGen
	defer func() {
		for _, drv := range drivers {
			if d, ok := drv.(*tiers.Driver); ok {
				d.Release()
			}
		}
		for _, a := range attachedApps {
			a.Release()
		}
	}()
	attachApp := func(streamName string, pair int) (*rubis.App, error) {
		seed := src.SeedFor(streamName)
		if cfg.DatasetSeed != 0 {
			if pair == 0 {
				// Pair 0 (and the physical env) share the pinned seed
				// directly, so a sweep's replications — and both
				// environments — reuse one golden.
				seed = cfg.DatasetSeed
			} else {
				seed = rng.NewSource(cfg.DatasetSeed).SeedFor(streamName)
			}
		}
		a, err := rubis.SharedApp(cfg.Dataset, seed)
		if err != nil {
			return nil, err
		}
		attachedApps = append(attachedApps, a)
		return a, nil
	}
	var growthWebs []*tiers.WebAppServer
	var collector *sysstat.Collector
	var hv *xen.Hypervisor
	var app *rubis.App
	var inst *vmInstance
	var topo tiers.Topology

	// newDriver picks the workload shape: the paper's closed loop when
	// cfg.Load is nil, the open-loop generator otherwise. Each instance
	// gets its own arrival process (they are stateful) and RNG source.
	// With a Resilience spec the dispatch path is wrapped in a guard
	// (timeouts/retries/breaker) per instance; without one the frontend
	// is untouched.
	var guards []*tiers.Guard
	newDriver := func(app *rubis.App, web tiers.Frontend, src *rng.Source) (tiers.LoadGen, error) {
		if cfg.Resilience != nil {
			g := tiers.NewGuard(k, web, *cfg.Resilience, src.Stream("resilience-jitter"))
			guards = append(guards, g)
			web = g
		}
		if cfg.Load == nil {
			return tiers.NewDriver(k, app, model, web, costs, cfg.Clients, src), nil
		}
		p, err := tiers.OpenParamsFromSpec(cfg.Load)
		if err != nil {
			return nil, fmt.Errorf("experiment: building load spec: %w", err)
		}
		return tiers.NewOpenDriver(k, app, model, web, costs, p, src), nil
	}

	switch cfg.Environment {
	case Virtualized:
		if cfg.Topology != nil {
			topo = *cfg.Topology
		}
		topo = topo.Normalized()
		xp := xen.DefaultParams()
		if cfg.XenParams != nil {
			xp = *cfg.XenParams
		}
		hvs := make([]*xen.Hypervisor, topo.Machines)
		for m := range hvs {
			host := hw.NewServer(k, hw.ProLiantSpec(fmt.Sprintf("host%d", m)))
			hvs[m] = xen.New(k, host, xp)
		}
		hv = hvs[0]
		for p := 0; p < pairs; p++ {
			appP, err := attachApp(fmt.Sprintf("dataset-%d", p), p)
			if err != nil {
				return nil, fmt.Errorf("experiment: dataset %d: %w", p, err)
			}
			instP := buildVMInstance(k, hvs, topo, p, appP, cfg.Cache, cfg.Queue)
			drv, err := newDriver(appP, instP.cluster, rng.NewSource(cfg.Seed+uint64(p)*7919))
			if err != nil {
				return nil, err
			}
			drivers = append(drivers, drv)
			growthWebs = append(growthWebs, instP.cluster.Replicas...)
			if p == 0 {
				app = appP
				inst = instP
				if topo.IsDegenerate() {
					// The paper's exact target prefix — the golden sweep
					// hash pins this path; aux-tier targets append after
					// it only when their specs are set.
					targets := []sysstat.Target{
						{Name: TierWeb, Snap: vmSnapshot(k, instP.webDoms[0])},
						{Name: TierDB, Snap: vmSnapshot(k, instP.dbDoms[0])},
						{Name: TierDom0, Snap: dom0Snapshot(k, hv)},
					}
					if instP.cacheDom != nil {
						targets = append(targets, sysstat.Target{Name: TierCache, Snap: vmSnapshot(k, instP.cacheDom)})
					}
					if instP.queueDom != nil {
						targets = append(targets, sysstat.Target{Name: TierQueue, Snap: vmSnapshot(k, instP.queueDom)})
					}
					collector = sysstat.NewCollector(k, cfg.KeepFullCatalog, targets...)
				} else {
					collector = sysstat.NewCollector(k, cfg.KeepFullCatalog, clusterTargets(k, hvs, instP)...)
				}
			}
		}

	case Physical:
		appP, err := attachApp("dataset", 0)
		if err != nil {
			return nil, fmt.Errorf("experiment: dataset: %w", err)
		}
		app = appP
		webSrv := hw.NewServer(k, hw.ProLiantSpec("web-pm"))
		dbSrv := hw.NewServer(k, hw.ProLiantSpec("db-pm"))
		webOS := osmodel.New("web-pm", webSrv.Mem, 140)
		dbOS := osmodel.New("db-pm", dbSrv.Mem, 135)
		webSrv.Mem.Set("kernel", 90e6)
		dbSrv.Mem.Set("kernel", 90e6)

		webBE := tiers.NewPMBackend(k, webSrv, dbSrv, tiers.DefaultPMParams("web"), src.Stream("pm-web-noise"), webOS)
		dbBE := tiers.NewPMBackend(k, dbSrv, webSrv, tiers.DefaultPMParams("db"), src.Stream("pm-db-noise"), dbOS)
		db := tiers.NewDBServer(k, dbBE, app, tiers.DefaultDBParams("pm"))
		dbc := tiers.NewDBCluster(db, nil, 0)
		paths := []tiers.PathPair{{To: tiers.PMPath(webBE), From: tiers.PMPath(dbBE)}}
		webPM := tiers.NewWebAppServer(k, webBE, dbc, paths, tiers.DefaultWebParams("pm"))
		growthWebs = append(growthWebs, webPM)
		drv, err := newDriver(app, tiers.NewWebCluster(k, []*tiers.WebAppServer{webPM}, 1, nil), src)
		if err != nil {
			return nil, err
		}
		drivers = append(drivers, drv)

		collector = sysstat.NewCollector(k, cfg.KeepFullCatalog,
			sysstat.Target{Name: TierWeb, Snap: pmSnapshot(k, webSrv, webOS)},
			sysstat.Target{Name: TierDB, Snap: pmSnapshot(k, dbSrv, dbOS)},
		)
		defer func() {
			res.WebPMCycles = webSrv.CPU.TotalCycles()
			res.DBPMCycles = dbSrv.CPU.TotalCycles()
		}()

	default:
		return nil, fmt.Errorf("experiment: unknown environment %q", cfg.Environment)
	}

	// Fault injection and the reaction side, wired only when
	// configured: the fault timeline is expanded deterministically from
	// the run seed before the kernel starts (injection consumes no
	// randomness at run time), and the health monitor drives replica
	// ejection/readmission and DB primary failover.
	faulty := cfg.Faults != nil || cfg.Resilience != nil
	var monitor *tiers.HealthMonitor
	if cfg.Faults != nil && inst != nil {
		tg := faults.Targets{
			Webs:     topo.MaxWebReplicas,
			DBs:      1 + topo.DBReadReplicas,
			Machines: topo.Machines,
		}
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
	if cfg.Resilience != nil && inst != nil {
		monitor = tiers.NewHealthMonitor(k, inst.cluster, inst.dbc, *cfg.Resilience)
		if inst.queueSrv != nil {
			monitor.SetQueue(inst.queueSrv)
		}
		monitor.Start()
	}

	// The endogenous coupling layer: the load-reading crash hazard and
	// the brownout controller both evaluate at window boundaries on the
	// collector ticker (hooks registered below, after the drivers'
	// rotation, in fixed order), so their in-run decisions are as
	// deterministic as the pre-expanded timeline.
	var hazard *tiers.Hazard
	var overload *tiers.Overload
	if cfg.Faults != nil && cfg.Faults.Hazard != nil && inst != nil {
		hazard = tiers.NewHazard(k, inst.cluster, *cfg.Faults.Hazard, src.Stream("fault-hazard"))
	}
	if cfg.Resilience != nil && cfg.Resilience.Brownout != nil && inst != nil {
		overload = tiers.NewOverload(inst.cluster, *cfg.Resilience.Brownout)
		inst.cluster.SetOverload(overload)
		for _, g := range guards {
			g.SetOverload(overload)
		}
	}
	if inst != nil && topo.Autoscaler != nil {
		// Emergency backfill after an ejection pays the same
		// provisioning delay as a scale-up.
		inst.cluster.SetBackfillBoot(sim.Seconds(topo.Autoscaler.BootSeconds))
	}

	// Rotate every driver's telemetry window on the collector's
	// sampling ticker: latency windows and resource samples close at
	// the same instants, in deterministic driver order. Reserving the
	// duration-derived window count up front keeps rotation
	// allocation-free for the whole run.
	//
	// Components register their window series before capacity is
	// reserved; registration order is the CSV column order: core,
	// replicas, fault, degradation, cache, queue.
	windows := int(cfg.Duration / sysstat.SampleInterval)
	primary := drivers[0].Recorder()
	if inst != nil && !topo.IsDegenerate() {
		primary.Gauge(telemetry.Replicas, "replicas", func() float64 { return float64(inst.cluster.ActiveReplicas()) })
	}
	for i, drv := range drivers {
		rec, out := drv.Recorder(), drv.Outcomes
		if faulty {
			retries := func() uint64 { return 0 }
			if i < len(guards) {
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
		if hazard != nil || overload != nil {
			// Degraded answers are deliberate fast responses, so they
			// count in their own series, not against availability. The
			// hazard rate sampled at a boundary is the window that closed
			// at the previous one: gauges sample before the hazard's own
			// hook runs.
			level, rate := func() float64 { return 0 }, func() float64 { return 0 }
			if overload != nil {
				level = func() float64 { return float64(overload.Level()) }
			}
			if hazard != nil {
				rate = hazard.WindowRate
			}
			rec.Counter(telemetry.Degraded, "requests/window", func() uint64 { return out().Degraded })
			rec.Gauge(telemetry.BrownoutLevel, "level", level)
			rec.Gauge(telemetry.HazardRate, "crashes/window", rate)
		}
	}
	if inst != nil && inst.cacheSrv != nil {
		// Store stats survive cold restarts, so the differenced
		// counters stay monotonic.
		cs := inst.cacheSrv
		primary.Gauge(telemetry.CacheHitRatio, "fraction", telemetry.WindowShare(
			func() uint64 { return cs.Snapshot().Hits },
			func() uint64 { return cs.Snapshot().Misses }, 0))
		primary.Counter(telemetry.CacheStampedes, "fetches/window", func() uint64 { return cs.Snapshot().Stampedes })
	}
	if inst != nil && inst.queueSrv != nil {
		qs := inst.queueSrv
		primary.Gauge(telemetry.QueueDepth, "writes", func() float64 { return float64(qs.Depth()) })
		primary.Gauge(telemetry.QueueLag, "ms", func() float64 { return qs.LagMs(k.Now()) })
	}
	for _, drv := range drivers {
		drv.Recorder().ReserveWindows(windows)
		collector.OnSample(drv.RotateWindow)
	}
	// Window-boundary actors run after rotation in fixed order: hazard
	// crashes first, then the brownout controller re-levels, then the
	// autoscaler decides — every run sees the identical sequence.
	if hazard != nil {
		collector.OnSample(hazard.OnSample)
	}
	if overload != nil {
		collector.OnSample(overload.OnSample)
	}
	if inst != nil && topo.Autoscaler != nil {
		// Registered after the drivers' RotateWindow hooks, so each
		// sample the autoscaler sees the window that just closed.
		scaler := tiers.NewAutoscaler(inst.cluster, primary.Series(), *topo.Autoscaler)
		collector.OnSample(scaler.OnSample)
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
		if od, ok := drv.(*tiers.OpenDriver); ok {
			if res.Sessions == nil {
				res.Sessions = &tiers.SessionStats{}
			}
			res.Sessions.Offered += od.Sessions.Offered
			res.Sessions.Started += od.Sessions.Started
			res.Sessions.Finished += od.Sessions.Finished
			res.Sessions.Abandoned += od.Sessions.Abandoned
			res.Sessions.PeakActive += od.Sessions.PeakActive
		}
	}
	res.WriteFraction = drivers[0].WriteFraction()
	res.MeanRespTime = drivers[0].MeanResponseTime()
	res.P95RespTime = drivers[0].ResponseTimeQuantile(0.95)
	res.Telemetry = primary.Series()
	for _, w := range growthWebs {
		res.WebGrowths += w.Growths()
	}
	res.Interactions = drivers[0].InteractionCounts()
	res.Tiers = collector.TargetNames()
	res.ServedHist, res.AbandonedHist = primary.RunHist(), primary.AbandonedHist()
	if inst != nil && !topo.IsDegenerate() {
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
	}
	if faulty {
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
	}
	if hazard != nil {
		stats := hazard.Stats
		res.Hazard = &stats
	}
	if overload != nil {
		stats := overload.Stats
		res.Brownout = &stats
	}
	if len(guards) > 0 {
		stats := guards[0].Stats
		res.Guard = &stats
	}
	if monitor != nil {
		res.Failovers = monitor.Failovers
	}
	if inst != nil && inst.cacheSrv != nil {
		stats := inst.cacheSrv.Snapshot()
		res.Cache = &stats
	}
	if inst != nil && inst.queueSrv != nil {
		stats := inst.queueSrv.Snapshot()
		res.Queue = &stats
	}
	for idx := 0; idx < rubis.NumInteractions; idx++ {
		h := primary.KindHist(idx)
		il := InteractionLatency{
			Kind:   string(rubis.InteractionAt(idx)),
			Count:  h.Count(),
			MeanMs: h.Mean() * 1e3,
			P95Ms:  h.Quantile(0.95) * 1e3,
		}
		if inst != nil && inst.cacheSrv != nil {
			il.CacheHits, il.CacheMisses = inst.cacheSrv.KindCounts(uint8(idx))
		}
		res.PerInteraction = append(res.PerInteraction, il)
	}
	if hv != nil {
		res.Attribution = hv.Attribution()
		res.GuestPhysCycles = hv.GuestPhysCycles()
		res.PerfFinal = hv.PerfCounters()
		res.Dom0BuffersMB = hv.Dom0().Mem.Get("backend-buffers") / 1e6
	}
	return res, nil
}

// vmSnapshot builds the snapshot closure for a guest domain.
func vmSnapshot(k *sim.Kernel, d *xen.Domain) func() sysstat.Snapshot {
	var lastTick sim.Time
	return func() sysstat.Snapshot {
		now := k.Now()
		d.OS.Tick(now - lastTick)
		lastTick = now
		l1, l5, l15 := d.OS.LoadAvg()
		return sysstat.Snapshot{
			At:             now,
			CPUCycles:      d.VirtCycles(),
			CPUBusy:        d.CPU.BusyTime(),
			StealTime:      d.StealTime(),
			Cores:          d.VCPUs,
			FreqHz:         2.8e9,
			MemTotal:       d.Mem.Capacity(),
			MemUsed:        d.Mem.Used(),
			MemBuffers:     d.Mem.Used() * 0.04,
			MemCached:      d.Mem.Get("dbcache") + d.Mem.Get("pagecache"),
			DiskReadBytes:  d.DiskReadBytes,
			DiskWriteBytes: d.DiskWrittenBytes,
			DiskReadOps:    d.DiskOps / 2,
			DiskWriteOps:   d.DiskOps - d.DiskOps/2,
			NetRxBytes:     d.NetRxBytes,
			NetTxBytes:     d.NetTxBytes,
			NetRxPkts:      uint64(d.NetRxBytes/1500) + 1,
			NetTxPkts:      uint64(d.NetTxBytes/1500) + 1,
			CtxSwitches:    d.OS.CtxSwitches,
			Interrupts:     d.OS.Interrupts,
			SoftIRQs:       d.OS.SoftIRQs,
			Forks:          d.OS.Forks,
			Faults:         d.OS.Faults,
			MajFaults:      d.OS.MajFaults,
			PgInBytes:      d.OS.PgInBytes,
			PgOutBytes:     d.OS.PgOutBytes,
			Procs:          d.OS.Procs,
			RunQueue:       d.OS.RunQueue,
			Blocked:        d.OS.Blocked,
			OpenFds:        d.OS.OpenFds,
			TCPSocks:       40 + d.OS.RunQueue*2,
			UDPSocks:       4,
			Load1:          l1, Load5: l5, Load15: l15,
		}
	}
}

// dom0Snapshot builds the snapshot closure for the hypervisor's dom0:
// its own CPU plus the physical disk and NIC it drives for the guests.
func dom0Snapshot(k *sim.Kernel, hv *xen.Hypervisor) func() sysstat.Snapshot {
	var lastTick sim.Time
	d := hv.Dom0()
	host := hv.Host()
	return func() sysstat.Snapshot {
		now := k.Now()
		d.OS.Tick(now - lastTick)
		lastTick = now
		l1, l5, l15 := d.OS.LoadAvg()
		rops, wops := host.Disk.Ops()
		rpk, tpk := host.NIC.Packets()
		return sysstat.Snapshot{
			At:             now,
			CPUCycles:      d.CPU.TotalCycles(),
			CPUBusy:        d.CPU.BusyTime(),
			Cores:          d.VCPUs,
			FreqHz:         host.Spec.FreqHz,
			MemTotal:       d.Mem.Capacity(),
			MemUsed:        d.Mem.Used(),
			MemBuffers:     d.Mem.Get("backend-buffers"),
			MemCached:      d.Mem.Get("pagecache"),
			DiskReadBytes:  host.Disk.ReadBytes(),
			DiskWriteBytes: host.Disk.WrittenBytes(),
			DiskReadOps:    rops,
			DiskWriteOps:   wops,
			DiskBusy:       host.Disk.BusyTime(),
			NetRxBytes:     host.NIC.RxBytes(),
			NetTxBytes:     host.NIC.TxBytes(),
			NetRxPkts:      rpk,
			NetTxPkts:      tpk,
			CtxSwitches:    d.OS.CtxSwitches,
			Interrupts:     d.OS.Interrupts,
			SoftIRQs:       d.OS.SoftIRQs,
			Forks:          d.OS.Forks,
			Faults:         d.OS.Faults,
			MajFaults:      d.OS.MajFaults,
			PgInBytes:      d.OS.PgInBytes,
			PgOutBytes:     d.OS.PgOutBytes,
			Procs:          d.OS.Procs,
			RunQueue:       d.OS.RunQueue,
			Blocked:        d.OS.Blocked,
			OpenFds:        d.OS.OpenFds,
			TCPSocks:       35,
			UDPSocks:       6,
			Load1:          l1, Load5: l5, Load15: l15,
		}
	}
}

// pmSnapshot builds the snapshot closure for a bare-metal server.
func pmSnapshot(k *sim.Kernel, srv *hw.Server, os *osmodel.OS) func() sysstat.Snapshot {
	var lastTick sim.Time
	return func() sysstat.Snapshot {
		now := k.Now()
		os.Tick(now - lastTick)
		lastTick = now
		l1, l5, l15 := os.LoadAvg()
		rops, wops := srv.Disk.Ops()
		rpk, tpk := srv.NIC.Packets()
		return sysstat.Snapshot{
			At:             now,
			CPUCycles:      srv.CPU.TotalCycles(),
			CPUBusy:        srv.CPU.BusyTime(),
			Cores:          srv.Spec.Cores,
			FreqHz:         srv.Spec.FreqHz,
			MemTotal:       srv.Mem.Capacity(),
			MemUsed:        srv.Mem.Used(),
			MemBuffers:     srv.Mem.Used() * 0.05,
			MemCached:      srv.Mem.Get("dbcache") + srv.Mem.Get("pagecache"),
			DiskReadBytes:  srv.Disk.ReadBytes(),
			DiskWriteBytes: srv.Disk.WrittenBytes(),
			DiskReadOps:    rops,
			DiskWriteOps:   wops,
			DiskBusy:       srv.Disk.BusyTime(),
			NetRxBytes:     srv.NIC.RxBytes(),
			NetTxBytes:     srv.NIC.TxBytes(),
			NetRxPkts:      rpk,
			NetTxPkts:      tpk,
			CtxSwitches:    os.CtxSwitches,
			Interrupts:     os.Interrupts,
			SoftIRQs:       os.SoftIRQs,
			Forks:          os.Forks,
			Faults:         os.Faults,
			MajFaults:      os.MajFaults,
			PgInBytes:      os.PgInBytes,
			PgOutBytes:     os.PgOutBytes,
			Procs:          os.Procs,
			RunQueue:       os.RunQueue,
			Blocked:        os.Blocked,
			OpenFds:        os.OpenFds,
			TCPSocks:       60 + os.RunQueue*2,
			UDPSocks:       5,
			Load1:          l1, Load5: l5, Load15: l15,
		}
	}
}
