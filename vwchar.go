// Package vwchar reproduces "Characterizing Workload of Web Applications
// on Virtualized Servers" (Wang, Huang, Fu, Kavi; 2014) as a library: a
// deterministic discrete-event simulation of the paper's testbed (a Xen
// host running the RUBiS auction benchmark in VMs, and the same benchmark
// on two bare-metal servers), a sysstat/perf-style monitoring plane
// cataloging the paper's 518 metrics, and the statistical
// characterization layer that regenerates every figure, Table 1, and the
// headline ratios of the paper's evaluation. A run samples four headline
// series (CPU, memory, disk, network) per monitored target every 2
// seconds, the 182-metric sysstat catalog as well only with
// Config.KeepFullCatalog, and the 154 hypervisor perf counters once, at
// the end (Result.PerfFinal).
//
// Quick start:
//
//	virt, err := vwchar.RunPairScaled(vwchar.Virtualized, 42, 1000, 1200)
//	phys, err := vwchar.RunPairScaled(vwchar.Physical, 42, 1000, 1200)
//	fig1, _ := vwchar.BuildFigure(1, virt.Browse, virt.Bid)
//	report := vwchar.Characterize(virt, phys)
//
// README.md describes the command-line tools and each subsystem;
// cmd/figures writes the paper-versus-measured report.
package vwchar

import (
	"io"

	"vwchar/internal/cachetier"
	"vwchar/internal/characterize"
	"vwchar/internal/experiment"
	"vwchar/internal/faults"
	"vwchar/internal/load"
	"vwchar/internal/model"
	"vwchar/internal/plot"
	"vwchar/internal/rubis"
	"vwchar/internal/runner"
	"vwchar/internal/sim"
	"vwchar/internal/sysstat"
	"vwchar/internal/telemetry"
	"vwchar/internal/tiers"
	"vwchar/internal/timeseries"
)

// Re-exported experiment types: these form the primary public API.
type (
	// Config parameterizes one experiment run.
	Config = experiment.Config
	// Result is a completed run with its collected series.
	Result = experiment.Result
	// Env selects virtualized or physical deployment.
	Env = experiment.Env
	// MixKind selects the client request composition.
	MixKind = experiment.MixKind
	// Figure is one of the paper's Figures 1-8.
	Figure = experiment.Figure
	// Panel is one sub-figure (browse and bid curves for one tier).
	Panel = experiment.Panel
	// Series is a 2-second-sampled metric trace.
	Series = timeseries.Series
	// Ratios holds one value per resource class (CPU/RAM/disk/network).
	Ratios = characterize.Ratios
	// Report is the full Section 4 characterization.
	Report = characterize.Report
	// PaperReference is one mix's paper values for the Section 4
	// comparisons.
	PaperReference = characterize.Reference
	// Table1Row is one row of the reproduced Table 1.
	Table1Row = sysstat.Table1Row
	// Resource is one of the four resource classes a Result records
	// per tier; read a tier's series with Result.Resource.
	Resource = sysstat.Resource
)

// The four resources, in the paper's order.
const (
	CPU  = sysstat.CPU
	RAM  = sysstat.RAM
	Disk = sysstat.Disk
	Net  = sysstat.Net
)

// Deployment environments.
const (
	Virtualized = experiment.Virtualized
	Physical    = experiment.Physical
)

// Request compositions (the paper's five).
const (
	MixBrowsing = experiment.MixBrowsing
	MixBidding  = experiment.MixBidding
	Mix30Browse = experiment.Mix30Browse
	Mix50Browse = experiment.Mix50Browse
	Mix70Browse = experiment.Mix70Browse
)

// Tier names accepted by Result accessors and characterization.
const (
	TierWeb   = experiment.TierWeb
	TierDB    = experiment.TierDB
	TierDom0  = experiment.TierDom0
	TierCache = experiment.TierCache
	TierQueue = experiment.TierQueue
)

// DefaultConfig returns the paper's experimental setup (1000 clients,
// 7 s think time, 600 samples of 2 s) for the given deployment and mix.
func DefaultConfig(env Env, mix MixKind) Config { return experiment.DefaultConfig(env, mix) }

// Run executes one experiment.
func Run(cfg Config) (*Result, error) { return experiment.Run(cfg) }

// Pair bundles the browse-only and bid-only runs of one environment,
// which is the unit every figure and ratio consumes.
type Pair struct {
	Browse, Bid *Result
}

// RunPairScaled runs the browsing and bidding experiments in env with
// the paper's default setup, the given seed, and the given client
// population and duration in seconds.
func RunPairScaled(env Env, seed uint64, clients int, durationSec float64) (*Pair, error) {
	run := func(mix MixKind, s uint64) (*Result, error) {
		cfg := DefaultConfig(env, mix)
		cfg.Seed = s
		cfg.Clients = clients
		cfg.Duration = sim.Seconds(durationSec)
		return Run(cfg)
	}
	browse, err := run(MixBrowsing, seed)
	if err != nil {
		return nil, err
	}
	bid, err := run(MixBidding, seed+1)
	if err != nil {
		return nil, err
	}
	return &Pair{Browse: browse, Bid: bid}, nil
}

// Parallel experiment sweeps: the unit of scale. A sweep fans a grid of
// points (env × mix × anything Config can express) times N replications
// out over a bounded worker pool, one isolated sim kernel per
// replication, and aggregates every metric across replications with
// mean, standard deviation, and 95% confidence intervals. Output is
// byte-identical regardless of worker count.
type (
	// SweepSpec describes a sweep: points × replications over a pool.
	SweepSpec = runner.SweepSpec
	// SweepPoint is one named sweep coordinate.
	SweepPoint = runner.Point
	// SweepResult is a completed sweep with per-point aggregates.
	SweepResult = runner.SweepResult
	// SweepPointResult is one aggregated sweep coordinate.
	SweepPointResult = runner.PointResult
	// SweepMetric is one scalar aggregated across replications.
	SweepMetric = runner.Metric
	// SweepProgress reports one completed replication.
	SweepProgress = runner.Progress
)

// Aggregated metric names. Every run's Result.Scalars lists these five
// first, then the configured features' scalars, then the per-tier
// resource means named by MetricCPU, MetricMem, MetricDisk and
// MetricNet.
const (
	MetricThroughput = experiment.MetricThroughput
	MetricWriteFrac  = experiment.MetricWriteFrac
	MetricRespMean   = experiment.MetricRespMean
	MetricRespP95    = experiment.MetricRespP95
	MetricErrors     = experiment.MetricErrors
)

// MetricCPU, MetricMem, MetricDisk and MetricNet name the per-tier
// aggregates for SweepPointResult.Metric lookups.
func MetricCPU(tier string) string { return experiment.MetricCPU(tier) }

// MetricMem names a tier's mean used-memory aggregate (MB).
func MetricMem(tier string) string { return experiment.MetricMem(tier) }

// MetricDisk names a tier's mean disk-traffic aggregate (KB/2s).
func MetricDisk(tier string) string { return experiment.MetricDisk(tier) }

// MetricNet names a tier's mean network-traffic aggregate (KB/2s).
func MetricNet(tier string) string { return experiment.MetricNet(tier) }

// Sweep runs the spec's full grid in parallel and aggregates it.
func Sweep(spec SweepSpec) (*SweepResult, error) { return runner.Run(spec) }

// SweepGrid builds the env × mix point grid from the paper's defaults,
// with mutate (optional) adjusting each config before it becomes a point.
func SweepGrid(envs []Env, mixes []MixKind, mutate func(*Config)) []SweepPoint {
	return runner.Grid(envs, mixes, mutate)
}

// FullSweepGrid is the paper's complete 2-env × 5-mix grid.
func FullSweepGrid(mutate func(*Config)) []SweepPoint { return runner.FullGrid(mutate) }

// Open-loop workload generation (internal/load): arrival processes over
// session starts plus a session-lifecycle layer, decoupling *who
// arrives when* from *what a session does*. Setting Config.Load runs
// the open-loop driver instead of the paper's fixed closed-loop
// population; leaving it nil preserves the paper's behaviour byte for
// byte.
type (
	// LoadSpec describes one open-loop workload.
	LoadSpec = load.Spec
	// LoadKind names an arrival-process family.
	LoadKind = load.Kind
	// LoadNamedSpec is one catalog scenario.
	LoadNamedSpec = load.NamedSpec
	// TracePoint is one (time, rate) knot of a replayable rate trace.
	TracePoint = load.TracePoint
	// SessionStats is the open-loop session-churn accounting.
	SessionStats = tiers.SessionStats
)

// Arrival-process families for LoadSpec.Kind.
const (
	LoadPoisson = load.Poisson
	LoadBursty  = load.Bursty
	LoadDiurnal = load.Diurnal
	LoadSpike   = load.Spike
	LoadTrace   = load.Trace
)

// LoadScenarios returns the built-in open-loop scenario catalog.
func LoadScenarios() []LoadNamedSpec { return load.Scenarios() }

// LoadScenarioNames lists the catalog names, sorted.
func LoadScenarioNames() []string { return load.ScenarioNames() }

// LoadScenario returns the named built-in scenario spec.
func LoadScenario(name string) (LoadSpec, error) { return load.Scenario(name) }

// ParseLoadTrace reads a CSV rate trace ("time_seconds,rate" lines) for
// LoadSpec.TracePoints.
func ParseLoadTrace(r io.Reader) ([]TracePoint, error) { return load.ParseTrace(r) }

// SweepLoadGrid builds the env × load-scenario point grid at a fixed
// mix — the open-loop analogue of SweepGrid.
func SweepLoadGrid(envs []Env, mix MixKind, scenarios []LoadNamedSpec, mutate func(*Config)) []SweepPoint {
	return runner.LoadGrid(envs, mix, scenarios, mutate)
}

// Windowed telemetry (internal/telemetry): every run's response-time
// pipeline records into 2-second windows rotated on the collector's
// sampling ticker, so Result.Telemetry's per-window latency quantiles,
// throughput, in-flight concurrency, and session-churn series share a
// time axis with the resource series — the flash-crowd transient is a
// plottable series, not a run-level scalar.
type (
	// TelemetrySeries is an ordered set of uniquely named series on one
	// time axis: Result.Telemetry (per-window application metrics) and
	// Result.Resources (per-tier resource series) are both one.
	TelemetrySeries = timeseries.Set
	// LatencyHist is the fixed-bin log latency histogram.
	LatencyHist = telemetry.Hist
	// Transient is the time-resolved queueing analysis of a latency
	// series: time-to-saturation, peak-window p95, drain time.
	Transient = characterize.Transient
	// TransientConfig parameterizes AnalyzeTransient.
	TransientConfig = characterize.TransientConfig
)

// AnalyzeTransient computes the queueing transient of a per-window
// latency series (typically Result.Telemetry's latency_p95_ms series).
func AnalyzeTransient(p95 *Series, cfg TransientConfig) Transient {
	return characterize.AnalyzeTransient(p95, cfg)
}

// Cluster topology (internal/tiers): Config.Topology generalizes the
// paper's fixed web-VM/DB-VM pair into a replicated cluster — N web
// replicas behind a pluggable load balancer, a DB primary with read
// replicas (read-your-writes per session), round-robin VM-to-machine
// placement, and an optional telemetry-driven autoscaler that adds and
// drains web replicas mid-run. A nil or degenerate topology reproduces
// the paper's assembly byte for byte.
type (
	// Topology is the cluster description.
	Topology = tiers.Topology
	// AutoscalerSpec configures the in-loop autoscaler.
	AutoscalerSpec = tiers.AutoscalerSpec
	// LBPolicy names a load-balancer dispatch policy.
	LBPolicy = tiers.LBPolicy
	// ScaleEvent is one autoscaler action (boot, up, down).
	ScaleEvent = tiers.ScaleEvent
	// ScalingStats summarizes a run's scale events.
	ScalingStats = experiment.ScalingStats
	// ScalingAnalysis splits a run's SLO debt into served-slow and
	// driven-away halves and reports time-to-scale.
	ScalingAnalysis = characterize.ScalingAnalysis
)

// Load-balancer policies for Topology.LB.
const (
	LBRoundRobin        = tiers.LBRoundRobin
	LBLeastInFlight     = tiers.LBLeastInFlight
	LBJoinShortestQueue = tiers.LBJoinShortestQueue
)

// Autoscaler policies for AutoscalerSpec.Policy.
const (
	AutoscaleReactive   = tiers.AutoscaleReactive
	AutoscalePredictive = tiers.AutoscalePredictive
)

// AnalyzeScaling computes the scaling analysis of a run against an SLO
// in milliseconds: time-to-scale, peak replica count, worst window,
// and the SLO debt split between responses served slowly and sessions
// driven away.
func AnalyzeScaling(r *Result, sloMillis float64) ScalingAnalysis {
	return characterize.AnalyzeScaling(r, sloMillis)
}

// Fault injection and resilience (internal/faults, internal/tiers):
// Config.Faults carries a seed-deterministic fault schedule (web/DB
// crashes, whole-machine failures, slow nodes, cache crashes) expanded
// into an explicit timeline before the run starts; Config.Resilience
// arms the serving path with per-call timeouts, bounded retries with
// budgets, health-check ejection, DB primary failover, and an optional
// circuit breaker. Both nil reproduces the fault-free runs byte for
// byte.
type (
	// FaultSchedule is the fault description.
	FaultSchedule = faults.Schedule
	// FaultComponent is one fault source (MTTF/MTTR or one-shot).
	FaultComponent = faults.Component
	// FaultEvent is one expanded timeline entry.
	FaultEvent = faults.Event
	// ResilienceSpec configures the guarded serving path.
	ResilienceSpec = faults.ResilienceSpec
	// BreakerSpec configures the optional circuit breaker.
	BreakerSpec = faults.BreakerSpec
	// ChaosScenario is one catalog entry pairing faults with the
	// resilience posture and load shape that exercises them.
	ChaosScenario = faults.Scenario
	// RequestStats is the per-run request-outcome accounting.
	RequestStats = experiment.RequestStats
	// GuardStats counts the resilience layer's interventions.
	GuardStats = tiers.GuardStats
	// FailoverEvent records one DB primary promotion.
	FailoverEvent = tiers.FailoverEvent
	// AvailabilityAnalysis is the fault-injection view of a run.
	AvailabilityAnalysis = characterize.AvailabilityAnalysis
)

// Correlated failures couple component losses in space and time:
// shared-fate groups fall together, fault storms modulate the crash
// rate with an intensity profile, conditional triggers shrink a
// component's MTTF while another is down, and the load-coupled hazard
// turns sustained overload into crash risk in-run. The overload
// controller (brownout) sheds optional read work first so degraded
// answers replace cascading losses. All of it is off by default and
// expanded deterministically from the seed.
type (
	// FaultCorrelation couples component failures: shared-fate
	// groups, storms, and conditional triggers.
	FaultCorrelation = faults.Correlation
	// SharedFateGroup fells a named set of machines together, once.
	SharedFateGroup = faults.SharedFateGroup
	// FaultStorm is a modulated cluster crash process.
	FaultStorm = faults.Storm
	// FaultTrigger shrinks a target's MTTF while a condition is down.
	FaultTrigger = faults.Trigger
	// HazardSpec arms the load-coupled in-run crash hazard.
	HazardSpec = faults.HazardSpec
	// BrownoutSpec arms the overload-adaptive degradation controller.
	BrownoutSpec = faults.BrownoutSpec
	// HazardCrash records one load-coupled crash.
	HazardCrash = tiers.HazardCrash
	// HazardStats is the hazard's per-run accounting.
	HazardStats = tiers.HazardStats
	// BrownoutStats is the overload controller's per-run accounting.
	BrownoutStats = tiers.BrownoutStats
	// CascadeAnalysis is the correlated-failure view of a run.
	CascadeAnalysis = characterize.CascadeAnalysis
)

// Storm intensity profiles.
const (
	StormProfileFlat    = faults.ProfileFlat
	StormProfileDiurnal = faults.ProfileDiurnal
)

// AnalyzeCascade computes the correlated-failure analysis of a run
// against an SLO in milliseconds: blast radius, cascade depth, crash
// attribution by origin, time-to-stabilize, and brownout accounting.
func AnalyzeCascade(r *Result, sloMillis float64) CascadeAnalysis {
	return characterize.AnalyzeCascade(r, sloMillis)
}

// ChaosScenarioNames lists the catalog names, sorted.
func ChaosScenarioNames() []string { return faults.ScenarioNames() }

// ChaosScenarioByName returns the named built-in chaos scenario.
func ChaosScenarioByName(name string) (ChaosScenario, error) { return faults.ScenarioByName(name) }

// DefaultResilience is a sane guarded-path posture: 1 s timeouts, two
// retries with budget, health checks, failover after 5 s.
func DefaultResilience() ResilienceSpec { return *faults.DefaultResilience() }

// AnalyzeAvailability computes the availability analysis of a run
// against an SLO in milliseconds: delivered availability, loss split,
// MTTR as observed, time-to-failover, and fault-attributed SLO debt.
func AnalyzeAvailability(r *Result, sloMillis float64) AvailabilityAnalysis {
	return characterize.AnalyzeAvailability(r, sloMillis)
}

// Cache and write-behind queue tiers (internal/cachetier,
// internal/tiers): Config.Cache deploys a memcache-like cache VM —
// cacheable reads consult it first and fall through to the DB on a
// miss, writes invalidate dependent keys, hot-key TTL expiries herd
// into thundering stampedes unless single-flight leases are on, and a
// crash restarts it cold. Config.Queue deploys a write-behind broker —
// writes publish their query chains and complete on the ack, a
// periodic batched drain replays them to the DB primary, and a DB crash
// mid-batch redelivers the interrupted entry (at-least-once). Both nil
// reproduces the direct-to-DB serving path byte for byte.
type (
	// CacheSpec is the cache-tier description.
	CacheSpec = cachetier.CacheSpec
	// QueueSpec is the queue-tier description.
	QueueSpec = cachetier.QueueSpec
	// CacheStats is the cache node's per-run accounting.
	CacheStats = tiers.CacheStats
	// QueueStats is the broker's per-run accounting.
	QueueStats = tiers.QueueStats
	// InteractionLatency is one interaction kind's run-level latency and
	// cache breakdown (Result.PerInteraction).
	InteractionLatency = experiment.InteractionLatency
	// CacheAnalysis is the cache/queue view of a run: warmup
	// convergence, miss-storm blast radius, backlog drain.
	CacheAnalysis = characterize.CacheAnalysis
)

// DefaultCacheSpec returns the calibrated cache tier (4096 entries,
// 64 MB, 60 s TTL, leases off).
func DefaultCacheSpec() CacheSpec { return cachetier.DefaultCacheSpec() }

// DefaultQueueSpec returns the calibrated write-behind queue tier
// (4096-deep, 64-write batches, 200 ms drain).
func DefaultQueueSpec() QueueSpec { return QueueSpec{}.WithDefaults() }

// AnalyzeCache computes the cache/queue analysis of a run: hit-ratio
// convergence, thundering-herd blast radius, and backlog drain time.
func AnalyzeCache(r *Result) CacheAnalysis { return characterize.AnalyzeCache(r) }

// BuildSaturationFigure assembles the Figure 9-style panel from one
// run: web CPU demand paired with per-window latency p95 on a shared
// normalized axis, with the active replica count overlaid when the run
// autoscaled.
func BuildSaturationFigure(r *Result) (Figure, error) {
	return experiment.BuildSaturationFigure(r)
}

// WriteTelemetryCSV exports a run's windowed telemetry as one CSV
// table with a shared time column, aligned with the resource series.
func WriteTelemetryCSV(w io.Writer, r *Result) error {
	if r.Telemetry == nil {
		return nil
	}
	return timeseries.WriteTableCSV(w, r.Telemetry.All()...)
}

// Envs lists the supported deployments; Mixes the five compositions.
func Envs() []Env { return experiment.Envs() }

// Mixes lists the five request compositions in browse-share order.
func Mixes() []MixKind { return experiment.Mixes() }

// ParseEnv converts a flag string into an Env.
func ParseEnv(s string) (Env, error) { return experiment.ParseEnv(s) }

// ParseMix converts a flag string into a MixKind.
func ParseMix(s string) (MixKind, error) { return experiment.ParseMix(s) }

// BuildFigure assembles the paper's figure id (1-8) from a run pair of
// the matching environment.
func BuildFigure(id int, browse, bid *Result) (Figure, error) {
	return experiment.BuildFigure(id, browse, bid)
}

// FigureSpecs lists the eight figures with captions and environments.
func FigureSpecs() []experiment.FigureSpec { return experiment.FigureSpecs() }

// Characterize computes the paper's Section 4 analyses from the two
// environment pairs.
func Characterize(virt, phys *Pair) Report {
	return characterize.BuildReport(virt.Browse, virt.Bid, phys.Browse, phys.Bid)
}

// Paper is what the paper reports for the browsing mix, the reference
// Report.Write prints beside the simulated ratios.
var Paper = characterize.Paper

// TierRatios computes the front-end/back-end demand ratios (§4.1).
func TierRatios(r *Result) Ratios { return characterize.TierRatios(r) }

// VMToDom0Ratios computes the VM-aggregate vs dom0 ratios (§4.1).
func VMToDom0Ratios(r *Result) Ratios { return characterize.VMToDom0Ratios(r) }

// EnvAggregateRatios computes the non-virt vs virt aggregate ratios (§4.2).
func EnvAggregateRatios(virt, phys *Result) Ratios {
	return characterize.EnvAggregateRatios(virt, phys)
}

// PhysicalDelta computes the §4.2 physical-demand deltas.
func PhysicalDelta(virt, phys *Result) Ratios {
	return characterize.PhysicalDelta(virt, phys)
}

// Table1 returns the reproduced Table 1 rows.
func Table1() []Table1Row { return sysstat.Table1() }

// WriteTable1 renders Table 1 as text.
func WriteTable1(w io.Writer) error { return sysstat.WriteTable1(w) }

// TotalProfiledMetrics reports the monitoring-plane width (518: 182
// hypervisor sysstat + 182 VM sysstat + 154 perf counters).
func TotalProfiledMetrics() int { return sysstat.TotalProfiledMetrics() }

// Formal workload modeling (the paper's stated future work): resource-
// level series models and transaction-level demand prediction.
type (
	// WorkloadModel is the fitted resource-level model of one run.
	WorkloadModel = model.WorkloadModel
	// SeriesModel is one fitted demand series (marginal + AR(1)).
	SeriesModel = model.SeriesModel
	// TransactionModel maps interactions to resource footprints.
	TransactionModel = model.TransactionModel
	// DemandPrediction is a transaction-level aggregate forecast.
	DemandPrediction = model.DemandPrediction
	// Interaction is one of the 26 RUBiS request types: a dense index
	// (0..25) whose String method gives the RUBiS name.
	Interaction = rubis.Interaction
	// MixModel is a client behaviour model (Markov chain + think time).
	MixModel = rubis.Model
	// DatasetConfig scales the generated auction dataset.
	DatasetConfig = rubis.DatasetConfig
)

// FitWorkloadModel fits the resource-level workload model to a run.
func FitWorkloadModel(r *Result) (*WorkloadModel, error) { return model.Fit(r) }

// FitTransactionModel measures per-interaction resource footprints.
func FitTransactionModel(cfg DatasetConfig, samplesPer int, seed uint64) (*TransactionModel, error) {
	return model.FitTransactions(cfg, samplesPer, seed)
}

// DefaultDataset returns the standard scaled RUBiS dataset.
func DefaultDataset() DatasetConfig { return rubis.DefaultDataset() }

// BrowsingModel and BiddingModel expose the paper's two client mixes for
// transaction-level prediction.
func BrowsingModel() MixModel { return rubis.BrowsingMix() }

// BiddingModel returns the read-write client mix.
func BiddingModel() MixModel { return rubis.BiddingMix() }

// RenderFigure draws a figure's panels as ASCII charts.
func RenderFigure(w io.Writer, fig Figure) error {
	for i := range fig.Panels {
		p := &fig.Panels[i]
		opts := plot.DefaultOptions(p.Title, p.Unit)
		if err := plot.Render(w, opts, p.Series()...); err != nil {
			return err
		}
	}
	return nil
}

// WriteFigureCSV exports a figure as one CSV table per panel.
func WriteFigureCSV(w io.Writer, fig Figure) error {
	for i := range fig.Panels {
		p := &fig.Panels[i]
		cols := make([]*timeseries.Series, 0, 2+len(p.Overlays))
		for _, s := range p.Series() {
			cols = append(cols, s.Clone(p.Title+" "+s.Name))
		}
		if err := timeseries.WriteTableCSV(w, cols...); err != nil {
			return err
		}
	}
	return nil
}
