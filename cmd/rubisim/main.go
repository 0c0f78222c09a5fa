// Command rubisim runs one experiment from the paper's setup and prints
// the headline demand series plus a summary.
//
// Usage:
//
//	rubisim -env virtualized -mix browsing -clients 1000 -duration 1200 -seed 42
//
// By default it drives the paper's closed-loop client population. The
// open-loop workload generator is selected with -load (a scenario from
// the catalog: steady, bursty, diurnal, flash-crowd) or -trace (a CSV
// of "time_seconds,rate" knots replayed with linear interpolation);
// -rate overrides the scenario's base intensity (for traces it is a
// rate multiplier).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vwchar"
	"vwchar/internal/sim"
	"vwchar/internal/telemetry"
)

func main() {
	env := flag.String("env", "virtualized", "deployment: virtualized | physical")
	mix := flag.String("mix", "browsing", "client mix: browsing | bidding | 30/70 | 50/50 | 70/30")
	clients := flag.Int("clients", 1000, "closed-loop client population (ignored with -load/-trace)")
	duration := flag.Float64("duration", 1200, "profiled window in seconds")
	seed := flag.Uint64("seed", 42, "experiment seed")
	csv := flag.Bool("csv", false, "emit the headline series as CSV instead of charts")
	loadName := flag.String("load", "", "open-loop scenario: "+strings.Join(vwchar.LoadScenarioNames(), " | "))
	rate := flag.Float64("rate", 0, "override the scenario's arrival rate (sessions/s; trace: multiplier)")
	trace := flag.String("trace", "", "replay an arrival-rate trace from a CSV file (time_seconds,rate)")
	webReplicas := flag.Int("web-replicas", 0, "initial web replicas (0: paper's single web VM)")
	maxWeb := flag.Int("max-web-replicas", 0, "web replica headroom for the autoscaler (0: no headroom)")
	dbReplicas := flag.Int("db-replicas", 0, "DB read replicas behind the primary")
	lb := flag.String("lb", "", "load balancer: round-robin | least-inflight | jsq")
	machines := flag.Int("machines", 0, "physical machines to place VMs on (0/1: one host)")
	autoscale := flag.String("autoscale", "", "autoscaler policy: reactive | predictive")
	sloMillis := flag.Float64("slo-ms", 500, "autoscaler latency SLO (p95, ms)")
	faultsName := flag.String("faults", "", "chaos scenario: "+strings.Join(vwchar.ChaosScenarioNames(), " | "))
	mttf := flag.Float64("mttf", 0, "ad-hoc web-replica crash MTTF in seconds (recurring)")
	mttr := flag.Float64("mttr", 0, "repair time in seconds for -mttf crashes (0: 30 s)")
	slowFactor := flag.Float64("slow-factor", 0, "degrade machine 0's CPU by this factor mid-run (>1)")
	hazardUtil := flag.Float64("hazard-util", 0, "arm the load-coupled crash hazard at this per-replica utilization (queue depth / workers)")
	hazardProb := flag.Float64("hazard-prob", 0.05, "per-window crash probability once a replica is over -hazard-util")
	brownoutUtil := flag.Float64("brownout-util", 0, "arm the overload controller: mean web utilization that starts browning out optional reads")
	cacheOn := flag.Bool("cache", false, "deploy the memcache-like cache tier (virtualized only)")
	cacheMB := flag.Float64("cache-mb", 0, "cache capacity in MB (0: default 64)")
	cacheTTL := flag.Float64("cache-ttl", 0, "cache entry TTL in seconds (0: default 60)")
	cacheLeases := flag.Bool("cache-leases", false, "protect hot-key expiries with single-flight leases")
	queueOn := flag.Bool("queue", false, "deploy the write-behind queue tier (virtualized only)")
	queueDepth := flag.Int("queue-depth", 0, "queue backlog bound in writes (0: default 4096)")
	flag.Parse()

	cfg, err := buildConfig(*env, *mix, *clients, *duration, *seed, *loadName, *rate, *trace)
	if err == nil {
		err = applyTopology(&cfg, *webReplicas, *maxWeb, *dbReplicas, *lb, *machines, *autoscale, *sloMillis)
	}
	if err == nil {
		err = applyFaults(&cfg, *faultsName, *mttf, *mttr, *slowFactor, *duration, *hazardUtil, *hazardProb, *brownoutUtil)
	}
	if err == nil {
		err = applyCacheQueue(&cfg, *cacheOn, *cacheMB, *cacheTTL, *cacheLeases, *queueOn, *queueDepth)
	}
	if err == nil {
		err = run(cfg, *csv, *sloMillis, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rubisim:", err)
		os.Exit(1)
	}
}

// buildConfig assembles the experiment config from flag values.
func buildConfig(env, mix string, clients int, duration float64, seed uint64, loadName string, rate float64, trace string) (vwchar.Config, error) {
	e, err := vwchar.ParseEnv(env)
	if err != nil {
		return vwchar.Config{}, err
	}
	m, err := vwchar.ParseMix(mix)
	if err != nil {
		return vwchar.Config{}, err
	}
	cfg := vwchar.DefaultConfig(e, m)
	cfg.Clients = clients
	cfg.Duration = sim.Seconds(duration)
	cfg.Seed = seed

	switch {
	case trace != "" && loadName != "":
		return vwchar.Config{}, fmt.Errorf("-load and -trace are mutually exclusive")
	case trace != "":
		f, err := os.Open(trace)
		if err != nil {
			return vwchar.Config{}, err
		}
		defer f.Close()
		points, err := vwchar.ParseLoadTrace(f)
		if err != nil {
			return vwchar.Config{}, err
		}
		cfg.Load = &vwchar.LoadSpec{
			Kind:        vwchar.LoadTrace,
			Rate:        rate,
			TracePoints: points,
		}
	case loadName != "":
		spec, err := vwchar.LoadScenario(loadName)
		if err != nil {
			return vwchar.Config{}, err
		}
		if rate > 0 {
			spec.Rate = rate
		}
		cfg.Load = &spec
	case rate > 0:
		return vwchar.Config{}, fmt.Errorf("-rate needs -load or -trace")
	}
	return cfg, nil
}

// applyTopology attaches a cluster topology when any cluster flag was
// set; with all flags at their zero values the config keeps the
// paper's fixed pair.
func applyTopology(cfg *vwchar.Config, webReplicas, maxWeb, dbReplicas int, lb string, machines int, autoscale string, sloMillis float64) error {
	if webReplicas == 0 && maxWeb == 0 && dbReplicas == 0 && lb == "" && machines == 0 && autoscale == "" {
		return nil
	}
	topo := &vwchar.Topology{
		WebReplicas:    webReplicas,
		MaxWebReplicas: maxWeb,
		DBReadReplicas: dbReplicas,
		LB:             vwchar.LBPolicy(lb),
		Machines:       machines,
	}
	if autoscale != "" {
		topo.Autoscaler = &vwchar.AutoscalerSpec{Policy: autoscale, SLOMillis: sloMillis}
	}
	cfg.Topology = topo
	return cfg.Validate()
}

// applyFaults attaches a fault schedule: a catalog scenario by name,
// an ad-hoc recurring web-replica crash (-mttf/-mttr), a mid-run slow
// machine (-slow-factor), the load-coupled crash hazard
// (-hazard-util/-hazard-prob), and/or the overload controller
// (-brownout-util). Scenarios bring their own load shape (unless one
// was chosen), resilience posture, and topology minimums; ad-hoc
// faults pair with the default resilience spec.
func applyFaults(cfg *vwchar.Config, name string, mttf, mttr, slowFactor, duration, hazardUtil, hazardProb, brownoutUtil float64) error {
	if name == "" && mttf == 0 && slowFactor == 0 && hazardUtil == 0 && brownoutUtil == 0 {
		if mttr != 0 {
			return fmt.Errorf("-mttr needs -mttf")
		}
		return nil
	}
	sched := &vwchar.FaultSchedule{}
	minWeb, minDB, minMachines := 0, 0, 0
	if name != "" {
		sc, err := vwchar.ChaosScenarioByName(name)
		if err != nil {
			return err
		}
		*sched = sc.Faults
		res := sc.Resilience
		cfg.Resilience = &res
		minWeb, minDB, minMachines = sc.MinWebReplicas, sc.MinDBReplicas, sc.MinMachines
		if cfg.Load == nil && sc.Load != "" {
			spec, err := vwchar.LoadScenario(sc.Load)
			if err != nil {
				return err
			}
			cfg.Load = &spec
		}
	}
	if mttr != 0 && mttf == 0 {
		return fmt.Errorf("-mttr needs -mttf")
	}
	if mttf > 0 {
		if mttr == 0 {
			mttr = 30
		}
		sched.WebCrash = &vwchar.FaultComponent{MTTFSeconds: mttf, MTTRSeconds: mttr}
		minWeb = max(minWeb, 2)
	}
	if slowFactor > 0 {
		if slowFactor <= 1 {
			return fmt.Errorf("-slow-factor must exceed 1")
		}
		sched.SlowNode = &vwchar.FaultComponent{
			AtSeconds:   duration / 4,
			MTTRSeconds: duration / 2,
			Value:       slowFactor,
			Targets:     []int{0},
		}
		minMachines = max(minMachines, 1)
	}
	if hazardUtil > 0 {
		sched.Hazard = &vwchar.HazardSpec{
			UtilThreshold: hazardUtil,
			CrashProb:     hazardProb,
			MTTRSeconds:   60,
		}
		minWeb = max(minWeb, 2)
	}
	cfg.Faults = sched
	if cfg.Resilience == nil {
		res := vwchar.DefaultResilience()
		cfg.Resilience = &res
	}
	if brownoutUtil > 0 {
		cfg.Resilience.Brownout = &vwchar.BrownoutSpec{EnterUtil: brownoutUtil}
	}
	if cfg.Topology == nil && (minWeb > 1 || minDB > 0 || minMachines > 1) {
		cfg.Topology = &vwchar.Topology{}
	}
	if t := cfg.Topology; t != nil {
		t.WebReplicas = max(t.WebReplicas, minWeb)
		t.MaxWebReplicas = max(t.MaxWebReplicas, t.WebReplicas)
		t.DBReadReplicas = max(t.DBReadReplicas, minDB)
		t.Machines = max(t.Machines, minMachines)
	}
	return cfg.Validate()
}

// applyCacheQueue attaches the cache and write-behind queue tiers when
// their flags were set; with all flags at their zero values the config
// keeps the paper's direct-to-DB path.
func applyCacheQueue(cfg *vwchar.Config, cacheOn bool, mb, ttl float64, leases, queueOn bool, depth int) error {
	if !cacheOn && (mb > 0 || ttl > 0 || leases) {
		return fmt.Errorf("-cache-mb/-cache-ttl/-cache-leases need -cache")
	}
	if !queueOn && depth > 0 {
		return fmt.Errorf("-queue-depth needs -queue")
	}
	if cacheOn {
		spec := vwchar.DefaultCacheSpec()
		if mb > 0 {
			spec.MaxMB = mb
		}
		if ttl > 0 {
			spec.TTLSeconds = ttl
		}
		spec.Leases = leases
		cfg.Cache = &spec
	}
	if queueOn {
		spec := vwchar.DefaultQueueSpec()
		if depth > 0 {
			spec.MaxDepth = depth
		}
		cfg.Queue = &spec
	}
	if cacheOn || queueOn {
		return cfg.Validate()
	}
	return nil
}

func run(cfg vwchar.Config, csv bool, sloMillis float64, w io.Writer) error {
	res, err := vwchar.Run(cfg)
	if err != nil {
		return err
	}

	if cfg.Load != nil {
		fmt.Fprintf(w, "%s / %s: open-loop %q at %.3g sessions/s, %.0f s, seed %d\n",
			cfg.Environment, cfg.Mix, cfg.Load.Kind, cfg.Load.MeanRate(), cfg.Duration.Sec(), cfg.Seed)
	} else {
		fmt.Fprintf(w, "%s / %s: %d clients, %.0f s, seed %d\n",
			cfg.Environment, cfg.Mix, cfg.Clients, cfg.Duration.Sec(), cfg.Seed)
	}
	fmt.Fprintf(w, "requests: %d completed, %d errors, write fraction %.1f%%\n",
		res.Completed, res.Errors, res.WriteFraction*100)
	fmt.Fprintf(w, "response time: mean %.1f ms, p95 %.1f ms\n",
		res.MeanRespTime*1e3, res.P95RespTime*1e3)
	if s := res.Sessions; s != nil {
		fmt.Fprintf(w, "sessions: %d started (%d offered), %d finished, %d abandoned, peak %d concurrent\n",
			s.Started, s.Offered, s.Finished, s.Abandoned, s.PeakActive)
	}
	if sc := res.Scaling; sc != nil {
		fmt.Fprintf(w, "cluster: peak %d web replicas, %d scale-ups, %d scale-downs",
			sc.PeakReplicas, sc.ScaleUps, sc.ScaleDowns)
		if sc.ScaleUps > 0 {
			fmt.Fprintf(w, ", first capacity active at t=%.0fs", sc.FirstUpAt.Sec())
		}
		fmt.Fprintln(w)
	}
	if res.Requests != nil {
		if err := vwchar.AnalyzeAvailability(res, sloMillis).Write(w); err != nil {
			return err
		}
	}
	correlated := cfg.Faults != nil && cfg.Faults.Correlation != nil && !cfg.Faults.Correlation.Empty()
	if res.Hazard != nil || res.Brownout != nil || correlated {
		if err := vwchar.AnalyzeCascade(res, sloMillis).Write(w); err != nil {
			return err
		}
	}
	if res.Cache != nil || res.Queue != nil {
		if err := vwchar.AnalyzeCache(res).Write(w); err != nil {
			return err
		}
	}
	if tel := res.Telemetry; tel != nil && tel.Windows() > 0 {
		p95, tput := tel.ByName(telemetry.LatencyP95), tel.ByName(telemetry.Throughput)
		// Minimum over busy windows only: idle windows record p95=0,
		// which is an artifact, not a latency floor.
		minBusy := 0.0
		for i := 0; i < tel.Windows(); i++ {
			if tput.At(i) <= 0 {
				continue
			}
			if v := p95.At(i); minBusy == 0 || v < minBusy {
				minBusy = v
			}
		}
		fmt.Fprintf(w, "windowed p95: %.1f..%.1f ms over %d windows of %.0f s; ",
			minBusy, p95.Max(), tel.Windows(), p95.Interval)
		if err := vwchar.AnalyzeTransient(p95, vwchar.TransientConfig{}).Write(w); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "web worker-pool growths (RAM jumps): %d\n\n", res.WebGrowths)

	tiers := []string{vwchar.TierWeb, vwchar.TierDB}
	if cfg.Environment == vwchar.Virtualized {
		tiers = append(tiers, vwchar.TierDom0)
	}
	if res.Cache != nil {
		tiers = append(tiers, vwchar.TierCache)
	}
	if res.Queue != nil {
		tiers = append(tiers, vwchar.TierQueue)
	}
	for _, tier := range tiers {
		cpu, mem := res.Resource(tier, vwchar.CPU), res.Resource(tier, vwchar.RAM)
		disk, net := res.Resource(tier, vwchar.Disk), res.Resource(tier, vwchar.Net)
		fmt.Fprintf(w, "%-8s cpu %.3g cyc/2s (max %.3g)  mem %.0f..%.0f MB  disk %.0f KB/2s  net %.0f KB/2s\n",
			tier, cpu.Mean(), cpu.Max(), mem.Min(), mem.Max(), disk.Mean(), net.Mean())
	}
	fmt.Fprintln(w)
	if csv {
		for _, tier := range tiers {
			if err := res.Resource(tier, vwchar.CPU).WriteCSV(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		// The windowed application metrics as one aligned table: same
		// time axis as the resource series above.
		if err := vwchar.WriteTelemetryCSV(w, res); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
