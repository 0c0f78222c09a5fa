package experiment

import (
	"math"
	"strings"
	"testing"

	"vwchar/internal/faults"
	"vwchar/internal/load"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/sysstat"
	"vwchar/internal/telemetry"
	"vwchar/internal/xen"
)

// shortConfig runs a scaled-down experiment quickly.
func shortConfig(env Env, mix MixKind) Config {
	cfg := DefaultConfig(env, mix)
	cfg.Clients = 200
	cfg.Duration = 90 * sim.Second
	cfg.Dataset = rubis.DatasetConfig{
		Regions: 20, Categories: 10, Users: 1500,
		ActiveItems: 500, OldItems: 900,
		BidsPerItem: 4, CommentsPerUser: 1, BufferPages: 200,
	}
	return cfg
}

func TestRunValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero clients", func(c *Config) { c.Clients = 0 }, "clients"},
		{"unknown environment", func(c *Config) { c.Environment = "mainframe" }, "environment"},
		// Physical never reads XenParams and has no brownout controller:
		// accepting either would silently ignore it.
		{"physical xen params", func(c *Config) {
			c.Environment = Physical
			c.XenParams = &xen.Params{}
		}, "virtualized"},
		{"physical brownout", func(c *Config) {
			c.Environment = Physical
			c.Resilience = faults.DefaultResilience()
			c.Resilience.Brownout = &faults.BrownoutSpec{EnterUtil: 0.8}
		}, "virtualized"},
		// One overload controller reads pair 0's cluster, so the other
		// pairs would shed on a utilization that is not theirs.
		{"pairs brownout", func(c *Config) {
			c.Pairs = 2
			c.Resilience = faults.DefaultResilience()
			c.Resilience.Brownout = &faults.BrownoutSpec{EnterUtil: 0.8}
		}, "consolidation pairs"},
	} {
		cfg := shortConfig(Virtualized, MixBrowsing)
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a rejection mentioning %q", tc.name, err, tc.want)
		}
	}
	// The same knobs stay valid where they are read.
	cfg := shortConfig(Virtualized, MixBrowsing)
	cfg.XenParams = &xen.Params{}
	cfg.Resilience = faults.DefaultResilience()
	cfg.Resilience.Brownout = &faults.BrownoutSpec{EnterUtil: 0.8}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("virtualized xen params + brownout rejected: %v", err)
	}
}

func TestMixModels(t *testing.T) {
	for _, mix := range []MixKind{MixBrowsing, MixBidding, Mix30Browse, Mix50Browse, Mix70Browse} {
		m := mix.Model()
		if m.MixName() == "" {
			t.Fatalf("%s has empty model name", mix)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown mix should panic")
		}
	}()
	MixKind("zzz").Model()
}

func TestVirtualizedRunEndToEnd(t *testing.T) {
	r, err := Run(shortConfig(Virtualized, MixBrowsing))
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 || r.Errors != 0 {
		t.Fatalf("completed=%d errors=%d", r.Completed, r.Errors)
	}
	// 90 s at 2 s sampling = 45 samples.
	for _, tier := range []string{TierWeb, TierDB, TierDom0} {
		if got := r.Resource(tier, sysstat.CPU).Len(); got != 45 {
			t.Fatalf("%s cpu samples = %d", tier, got)
		}
		if r.Resource(tier, sysstat.CPU).Sum() <= 0 {
			t.Fatalf("%s cpu demand is zero", tier)
		}
		if r.Resource(tier, sysstat.RAM).Mean() <= 0 {
			t.Fatalf("%s memory is zero", tier)
		}
		if r.Resource(tier, sysstat.Net).Sum() <= 0 {
			t.Fatalf("%s network is zero", tier)
		}
	}
	// Virtual cycle counters dwarf dom0's physical counters (paper).
	vmCPU := r.Resource(TierWeb, sysstat.CPU).Mean() + r.Resource(TierDB, sysstat.CPU).Mean()
	if vmCPU <= r.Resource(TierDom0, sysstat.CPU).Mean() {
		t.Fatal("VM cycle counters should exceed dom0's")
	}
	if r.GuestPhysCycles <= 0 {
		t.Fatal("guest physical attribution missing")
	}
	if r.Attribution.BackendCycles <= 0 || r.Attribution.OwnCycles <= 0 {
		t.Fatalf("dom0 attribution incomplete: %+v", r.Attribution)
	}
	if len(r.PerfFinal) != 154 {
		t.Fatalf("perf counters = %d", len(r.PerfFinal))
	}
	if r.Dom0BuffersMB <= 0 {
		t.Fatal("dom0 buffers gauge missing")
	}
	if len(r.Interactions) < 5 {
		t.Fatalf("only %d interaction kinds", len(r.Interactions))
	}
}

// TestTelemetryAlignsWithCollector pins the tentpole's alignment
// contract: the windowed latency series rotate on the collector's
// ticker, so they have exactly one window per resource sample, the
// same interval, and the same time axis — resource demand and latency
// can be plotted against each other sample for sample.
func TestTelemetryAlignsWithCollector(t *testing.T) {
	r, err := Run(shortConfig(Virtualized, MixBrowsing))
	if err != nil {
		t.Fatal(err)
	}
	tel := r.Telemetry
	if tel == nil {
		t.Fatal("no telemetry on closed-loop result")
	}
	cpu := r.Resource(TierWeb, sysstat.CPU)
	for _, s := range tel.All() {
		if s.Len() != r.Resources.Windows() {
			t.Fatalf("%s has %d windows, collector took %d samples", s.Name, s.Len(), r.Resources.Windows())
		}
		if s.Interval != cpu.Interval {
			t.Fatalf("%s interval %v != resource interval %v", s.Name, s.Interval, cpu.Interval)
		}
		for i := 0; i < s.Len(); i++ {
			if s.TimeAt(i) != cpu.TimeAt(i) {
				t.Fatalf("%s window %d at t=%v, resource sample at t=%v", s.Name, i, s.TimeAt(i), cpu.TimeAt(i))
			}
		}
	}
	// The closed loop serves real traffic, so the windowed pipeline
	// must show it: throughput in most windows, a positive p95 wherever
	// there is throughput, and run totals consistent with the windows.
	var completions float64
	busy := 0
	tputs := tel.ByName(telemetry.Throughput)
	p50s, p95s := tel.ByName(telemetry.LatencyP50), tel.ByName(telemetry.LatencyP95)
	for i := 0; i < tputs.Len(); i++ {
		tput := tputs.At(i)
		completions += tput * tputs.Interval
		if tput > 0 {
			busy++
			if p95s.At(i) <= 0 {
				t.Fatalf("window %d has throughput %v but p95 %v", i, tput, p95s.At(i))
			}
			if p95s.At(i) < p50s.At(i) {
				t.Fatalf("window %d p95 %v < p50 %v", i, p95s.At(i), p50s.At(i))
			}
		}
	}
	if busy < tputs.Len()/2 {
		t.Fatalf("only %d of %d windows saw traffic", busy, tputs.Len())
	}
	// Window completions undercount the run total only by what was
	// still in flight or landed after the last rotation.
	if completions > float64(r.Completed) || completions < float64(r.Completed)*0.9 {
		t.Fatalf("windowed completions %v vs run total %d", completions, r.Completed)
	}
	// Closed loop: fixed population, no session churn.
	if starts := tel.ByName(telemetry.SessionStarts).Sum(); starts != 0 || tel.ByName(telemetry.SessionEnds).Sum() != 0 {
		t.Fatalf("closed-loop run reported session churn: %v starts", starts)
	}
}

func TestPhysicalRunEndToEnd(t *testing.T) {
	r, err := Run(shortConfig(Physical, MixBidding))
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Fatal("no requests completed")
	}
	for _, tier := range []string{TierWeb, TierDB} {
		if r.Resource(tier, sysstat.CPU).Sum() <= 0 {
			t.Fatalf("%s cpu zero", tier)
		}
	}
	if r.Resource(TierDom0, sysstat.CPU) != nil {
		t.Fatal("physical run should have no dom0 target")
	}
	if r.WebPMCycles <= 0 || r.DBPMCycles <= 0 {
		t.Fatal("PM cumulative cycles missing")
	}
	if r.WriteFraction <= 0 {
		t.Fatal("bidding run should report writes")
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := Run(shortConfig(Virtualized, MixBrowsing))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shortConfig(Virtualized, MixBrowsing))
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed {
		t.Fatalf("request counts differ: %d vs %d", a.Completed, b.Completed)
	}
	sa, sb := a.Resource(TierWeb, sysstat.CPU), b.Resource(TierWeb, sysstat.CPU)
	for i := 0; i < sa.Len(); i++ {
		if sa.At(i) != sb.At(i) {
			t.Fatalf("cpu series diverges at sample %d: %v vs %v", i, sa.At(i), sb.At(i))
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	cfg := shortConfig(Virtualized, MixBrowsing)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 777
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < a.Resource(TierWeb, sysstat.CPU).Len(); i++ {
		if a.Resource(TierWeb, sysstat.CPU).At(i) == b.Resource(TierWeb, sysstat.CPU).At(i) {
			same++
		}
	}
	if same == a.Resource(TierWeb, sysstat.CPU).Len() {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestFullCatalogRecording(t *testing.T) {
	cfg := shortConfig(Virtualized, MixBrowsing)
	cfg.KeepFullCatalog = true
	cfg.Clients = 80
	cfg.Duration = 45 * sim.Second
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Resources.ByName(TierDom0 + "/%user [all]")
	if s == nil || s.Len() == 0 || s.Max() <= 0 {
		t.Fatal("dom0 %user should be recorded and positive")
	}
	s = r.Resources.ByName(TierWeb + "/cswch/s")
	if s == nil || s.Max() <= 0 {
		t.Fatal("web cswch/s should be positive under load")
	}
}

func TestFigureSpecsAndBuild(t *testing.T) {
	specs := FigureSpecs()
	if len(specs) != 8 {
		t.Fatalf("figure specs = %d", len(specs))
	}
	browse, err := Run(shortConfig(Virtualized, MixBrowsing))
	if err != nil {
		t.Fatal(err)
	}
	bid, err := Run(shortConfig(Virtualized, MixBidding))
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 4; id++ {
		fig, err := BuildFigure(id, browse, bid)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Panels) != 3 {
			t.Fatalf("figure %d panels = %d, want 3 (web, db, dom0)", id, len(fig.Panels))
		}
		for _, p := range fig.Panels {
			if p.Browse.Len() == 0 || p.Bid.Len() == 0 {
				t.Fatalf("figure %d panel %q has empty series", id, p.Title)
			}
			if p.Browse.Name != "browse" || p.Bid.Name != "bid" {
				t.Fatalf("panel series mislabeled: %q/%q", p.Browse.Name, p.Bid.Name)
			}
		}
	}
	// Environment mismatch is rejected.
	if _, err := BuildFigure(5, browse, bid); err == nil {
		t.Fatal("figure 5 needs physical runs")
	}
	if _, err := BuildFigure(99, browse, bid); err == nil {
		t.Fatal("unknown figure id should error")
	}
}

func TestPhysicalFigures(t *testing.T) {
	browse, err := Run(shortConfig(Physical, MixBrowsing))
	if err != nil {
		t.Fatal(err)
	}
	bid, err := Run(shortConfig(Physical, MixBidding))
	if err != nil {
		t.Fatal(err)
	}
	for id := 5; id <= 8; id++ {
		fig, err := BuildFigure(id, browse, bid)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Panels) != 2 {
			t.Fatalf("figure %d panels = %d, want 2 (no dom0)", id, len(fig.Panels))
		}
	}
}

func TestConsolidationValidation(t *testing.T) {
	cfg := shortConfig(Physical, MixBrowsing)
	cfg.Pairs = 2
	if _, err := Run(cfg); err == nil {
		t.Fatal("physical consolidation should error")
	}
	cfg = shortConfig(Virtualized, MixBrowsing)
	cfg.Pairs = 6
	if _, err := Run(cfg); err == nil {
		t.Fatal("six pairs exceed the ten-VM limit and should error")
	}
}

func TestConsolidationRunsMultiplePairs(t *testing.T) {
	cfg := shortConfig(Virtualized, MixBrowsing)
	cfg.Clients = 100
	cfg.Duration = 60 * sim.Second
	cfg.Pairs = 3
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PairStats) != 3 {
		t.Fatalf("pair stats = %d", len(r.PairStats))
	}
	var total uint64
	for i, ps := range r.PairStats {
		if ps.Completed == 0 {
			t.Fatalf("pair %d served nothing", i)
		}
		total += ps.Completed
	}
	if total != r.Completed {
		t.Fatalf("pair sum %d != total %d", total, r.Completed)
	}
	// Consolidation multiplies dom0's backend work versus one pair.
	single := shortConfig(Virtualized, MixBrowsing)
	single.Clients = 100
	single.Duration = 60 * sim.Second
	one, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	if r.Resource(TierDom0, sysstat.CPU).Mean() <= one.Resource(TierDom0, sysstat.CPU).Mean() {
		t.Fatalf("dom0 demand should grow with consolidation: %v vs %v",
			r.Resource(TierDom0, sysstat.CPU).Mean(), one.Resource(TierDom0, sysstat.CPU).Mean())
	}
}

// openSpec is a small open-loop workload for experiment-level tests.
func openSpec() *load.Spec {
	return &load.Spec{
		Kind:        load.Poisson,
		Rate:        1.5,
		SessionMean: 6,
		RampSeconds: 10,
	}
}

// TestOpenLoopRunEndToEnd runs both deployments under the open-loop
// generator and checks the session accounting reaches the Result.
func TestOpenLoopRunEndToEnd(t *testing.T) {
	for _, env := range Envs() {
		cfg := shortConfig(env, MixBrowsing)
		cfg.Duration = 60 * sim.Second
		cfg.Load = openSpec()
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", env, err)
		}
		if r.Sessions == nil {
			t.Fatalf("%s: open-loop run reported no session stats", env)
		}
		if r.Sessions.Started == 0 || r.Completed == 0 {
			t.Fatalf("%s: open-loop run served nothing: %+v", env, r.Sessions)
		}
		if r.Sessions.Started > r.Sessions.Offered {
			t.Fatalf("%s: started %d > offered %d", env, r.Sessions.Started, r.Sessions.Offered)
		}
		if r.Resource(TierWeb, sysstat.CPU).Mean() <= 0 {
			t.Fatalf("%s: no web CPU demand", env)
		}
		// The open loop's session churn reaches the windowed series:
		// per-window starts sum to (at most) the run's admitted
		// sessions, short only of what arrived after the last rotation.
		tel := r.Telemetry
		if tel == nil || tel.Windows() != r.Resources.Windows() {
			t.Fatalf("%s: telemetry missing or misaligned", env)
		}
		starts := tel.ByName(telemetry.SessionStarts).Sum()
		if starts == 0 || starts > float64(r.Sessions.Started) {
			t.Fatalf("%s: windowed starts %v vs run total %d", env, starts, r.Sessions.Started)
		}
	}
}

// TestOpenLoopValidation pins config validation: a bad load spec fails
// fast, and open-loop configs do not require a client population.
func TestOpenLoopValidation(t *testing.T) {
	cfg := shortConfig(Virtualized, MixBrowsing)
	cfg.Load = &load.Spec{Kind: "nope"}
	if _, err := Run(cfg); err == nil {
		t.Fatal("bad load kind should error")
	}
	cfg = shortConfig(Virtualized, MixBrowsing)
	cfg.Duration = 30 * sim.Second
	cfg.Clients = 0 // ignored under open loop
	cfg.Load = openSpec()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("open-loop config with zero clients rejected: %v", err)
	}
}

// TestOpenLoopConsolidatedPairs runs the open-loop generator across
// co-located instances: each pair gets its own arrival process and the
// session stats sum.
func TestOpenLoopConsolidatedPairs(t *testing.T) {
	cfg := shortConfig(Virtualized, MixBrowsing)
	cfg.Duration = 40 * sim.Second
	cfg.Pairs = 2
	cfg.Load = openSpec()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PairStats) != 2 {
		t.Fatalf("pair stats = %d", len(r.PairStats))
	}
	for i, ps := range r.PairStats {
		if ps.Completed == 0 {
			t.Fatalf("pair %d served nothing", i)
		}
	}
	if r.Sessions == nil || r.Sessions.Started == 0 {
		t.Fatal("no aggregated session stats")
	}
}

// TestOpenLoopRunDeterminism pins replay equality through Run.
func TestOpenLoopRunDeterminism(t *testing.T) {
	cfg := shortConfig(Virtualized, MixBrowsing)
	cfg.Duration = 40 * sim.Second
	cfg.Load = &load.Spec{Kind: load.Bursty, Rate: 1, BurstFactor: 6,
		BaseDwell: 20, BurstDwell: 8, SessionMean: 5}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || *a.Sessions != *b.Sessions ||
		a.Resource(TierWeb, sysstat.CPU).Mean() != b.Resource(TierWeb, sysstat.CPU).Mean() {
		t.Fatalf("open-loop replay diverged: %d/%+v vs %d/%+v",
			a.Completed, a.Sessions, b.Completed, b.Sessions)
	}
}

// TestOpenLoopPoissonMatchesClosedLoopDemand is the equivalence check
// the ISSUE asks for: an open-loop Poisson workload offered at the
// closed loop's measured throughput must reproduce the closed loop's
// demand shape within tolerance — same request rate, same web-tier CPU
// per unit time. The closed loop is run first to measure its offered
// load; the open loop is then matched to it.
func TestOpenLoopPoissonMatchesClosedLoopDemand(t *testing.T) {
	closedCfg := shortConfig(Virtualized, MixBrowsing)
	closedCfg.Clients = 40
	closedCfg.Duration = 900 * sim.Second
	closed, err := Run(closedCfg)
	if err != nil {
		t.Fatal(err)
	}
	closedRate := float64(closed.Completed) / closedCfg.Duration.Sec()

	const sessionMean = 10
	openCfg := closedCfg
	openCfg.Load = &load.Spec{
		Kind:        load.Poisson,
		Rate:        closedRate / sessionMean, // sessions/s * interactions/session = req/s
		SessionMean: sessionMean,
	}
	open, err := Run(openCfg)
	if err != nil {
		t.Fatal(err)
	}
	openRate := float64(open.Completed) / openCfg.Duration.Sec()

	// The open loop starts empty and owes the steady state one
	// length-biased session residual (~70 s here), so it undershoots by
	// roughly E[D]/T ~ 8%; 15% bounds that transient plus Poisson
	// spread.
	if rel := math.Abs(openRate-closedRate) / closedRate; rel > 0.15 {
		t.Fatalf("matched open-loop throughput %v req/s vs closed %v req/s (%.0f%% off)",
			openRate, closedRate, rel*100)
	}
	cw, ow := closed.Resource(TierWeb, sysstat.CPU).Mean(), open.Resource(TierWeb, sysstat.CPU).Mean()
	if rel := math.Abs(ow-cw) / cw; rel > 0.25 {
		t.Fatalf("web CPU demand: open %v vs closed %v (%.0f%% off)", ow, cw, rel*100)
	}
	cd, od := closed.Resource(TierDB, sysstat.CPU).Mean(), open.Resource(TierDB, sysstat.CPU).Mean()
	if rel := math.Abs(od-cd) / cd; rel > 0.30 {
		t.Fatalf("db CPU demand: open %v vs closed %v (%.0f%% off)", od, cd, rel*100)
	}
}
