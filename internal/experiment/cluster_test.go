package experiment

import (
	"reflect"
	"testing"

	"vwchar/internal/load"
	"vwchar/internal/sim"
	"vwchar/internal/sysstat"
	"vwchar/internal/telemetry"
	"vwchar/internal/tiers"
)

// TestDegenerateTopologyMatchesNil pins the tentpole's compatibility
// contract at the single-run level: an explicit degenerate topology —
// 1 web, 1 DB, 1 machine, round-robin, no autoscaler — takes the
// cluster construction path yet reproduces the nil-topology run
// exactly, scalar for scalar and sample for sample. The golden sweep
// hash pins the same property across the whole grid.
func TestDegenerateTopologyMatchesNil(t *testing.T) {
	base := shortConfig(Virtualized, MixBrowsing)
	base.Clients = 80
	base.Duration = 40 * sim.Second

	run := func(topo *tiers.Topology) *Result {
		cfg := base
		cfg.Topology = topo
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	plain := run(nil)
	for _, topo := range []*tiers.Topology{
		{},
		{WebReplicas: 1, MaxWebReplicas: 1, Machines: 1, LB: tiers.LBJoinShortestQueue},
	} {
		deg := run(topo)
		if plain.Completed != deg.Completed || plain.Errors != deg.Errors {
			t.Fatalf("topology %+v: completed/errors %d/%d != %d/%d",
				topo, deg.Completed, deg.Errors, plain.Completed, plain.Errors)
		}
		if plain.MeanRespTime != deg.MeanRespTime || plain.P95RespTime != deg.P95RespTime {
			t.Fatalf("topology %+v: response times diverged: %v/%v != %v/%v",
				topo, deg.MeanRespTime, deg.P95RespTime, plain.MeanRespTime, plain.P95RespTime)
		}
		if !reflect.DeepEqual(plain.Tiers, deg.Tiers) {
			t.Fatalf("topology %+v: tiers %v != %v", topo, deg.Tiers, plain.Tiers)
		}
		// Series comparison uses a 1-ulp-scale relative tolerance: the
		// memory gauges sum map-ordered components, which wobbles the
		// last bit between runs even for identical configs (below the
		// golden hash's formatted precision).
		for _, tier := range []string{TierWeb, TierDB, TierDom0} {
			for name, pick := range map[string]func(*Result) []float64{
				"cpu":  func(r *Result) []float64 { return r.Resource(tier, sysstat.CPU).Values },
				"mem":  func(r *Result) []float64 { return r.Resource(tier, sysstat.RAM).Values },
				"disk": func(r *Result) []float64 { return r.Resource(tier, sysstat.Disk).Values },
				"net":  func(r *Result) []float64 { return r.Resource(tier, sysstat.Net).Values },
			} {
				if !seriesAlmostEqual(pick(plain), pick(deg)) {
					t.Fatalf("topology %+v: %s %s series diverged", topo, tier, name)
				}
			}
		}
		if !seriesAlmostEqual(plain.Telemetry.ByName(telemetry.LatencyP95).Values, deg.Telemetry.ByName(telemetry.LatencyP95).Values) {
			t.Fatalf("topology %+v: latency p95 series diverged", topo)
		}
		if deg.Telemetry.ByName(telemetry.Replicas) != nil {
			t.Fatalf("topology %+v: degenerate run materialized a replica series", topo)
		}
		if deg.Scaling != nil || deg.ReplicaServed != nil {
			t.Fatalf("topology %+v: degenerate run reported cluster accounting", topo)
		}
	}
}

// TestClusterTopologyEndToEnd runs a real cluster — replicated web
// tier, a DB read replica, two machines — and checks the per-replica
// accounting and collector targets come out.
func TestClusterTopologyEndToEnd(t *testing.T) {
	cfg := shortConfig(Virtualized, MixBrowsing)
	cfg.Clients = 150
	cfg.Duration = 40 * sim.Second
	cfg.Topology = &tiers.Topology{
		WebReplicas:    2,
		DBReadReplicas: 1,
		LB:             tiers.LBLeastInFlight,
		Machines:       2,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 || r.Errors != 0 {
		t.Fatalf("completed=%d errors=%d", r.Completed, r.Errors)
	}
	// Per-VM targets, per-machine dom0s, and the classic aggregates.
	want := []string{"webapp-0", "webapp-1", "mysql-primary", "mysql-ro-0",
		"dom0-0", "dom0-1", "dom0", "webapp", "mysql"}
	if !reflect.DeepEqual(r.Tiers, want) {
		t.Fatalf("tiers = %v, want %v", r.Tiers, want)
	}
	// The aggregates sum their members' demand.
	for _, tier := range want {
		if r.Resource(tier, sysstat.CPU) == nil {
			t.Fatalf("no CPU series for %q", tier)
		}
	}
	aggCPU := r.Resource(TierWeb, sysstat.CPU).Sum()
	partsCPU := r.Resource("webapp-0", sysstat.CPU).Sum() + r.Resource("webapp-1", sysstat.CPU).Sum()
	if aggCPU <= 0 || absDiff(aggCPU, partsCPU) > 1e-6*partsCPU {
		t.Fatalf("webapp aggregate CPU %v != sum of replicas %v", aggCPU, partsCPU)
	}
	// Both replicas took traffic, and the split sums to the total.
	if len(r.ReplicaServed) != 2 {
		t.Fatalf("replica served = %v", r.ReplicaServed)
	}
	var sum uint64
	for i, n := range r.ReplicaServed {
		if n == 0 {
			t.Fatalf("replica %d took no traffic", i)
		}
		sum += n
	}
	if sum != r.Completed {
		t.Fatalf("replica dispatches %d != completed %d", sum, r.Completed)
	}
	if r.Scaling == nil || r.Scaling.PeakReplicas != 2 || r.Scaling.ScaleUps != 0 {
		t.Fatalf("scaling stats = %+v", r.Scaling)
	}
	if rep := r.Telemetry.ByName(telemetry.Replicas); rep == nil || rep.Max() != 2 {
		t.Fatal("replica gauge series missing or wrong")
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// seriesAlmostEqual compares two sample series within a relative
// tolerance a few ulps wide.
func seriesAlmostEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if d := absDiff(a[i], b[i]); d > 1e-12*(absDiff(a[i], 0)+absDiff(b[i], 0)) {
			return false
		}
	}
	return true
}

// TestAutoscalerScalesUpUnderFlashCrowd closes the loop end to end: an
// open-loop spike against a 1-active/3-max cluster must trigger
// scale-ups mid-run, respect the cooldown between operations, and
// leave the scale-event log and replica gauge consistent.
func TestAutoscalerScalesUpUnderFlashCrowd(t *testing.T) {
	cfg := shortConfig(Virtualized, MixBrowsing)
	cfg.Duration = 120 * sim.Second
	cfg.Load = &load.Spec{
		Kind: load.Spike, Rate: 15, SpikeFactor: 8,
		SpikeAt: 30, SpikeRamp: 10, SpikeHold: 60,
		SessionMean: 10, AbandonAfterSeconds: 5,
	}
	const cooldown = 12.0
	cfg.Topology = &tiers.Topology{
		WebReplicas:    1,
		MaxWebReplicas: 3,
		LB:             tiers.LBJoinShortestQueue,
		Autoscaler: &tiers.AutoscalerSpec{
			SLOMillis:       200,
			BootSeconds:     6,
			CooldownSeconds: cooldown,
		},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := r.Scaling
	if sc == nil || sc.ScaleUps == 0 {
		t.Fatalf("the spike never triggered a scale-up: %+v", sc)
	}
	if sc.FirstUpAt.Sec() <= 30 {
		t.Fatalf("first scale-up active at t=%.1fs, before the spike began", sc.FirstUpAt.Sec())
	}
	if sc.PeakReplicas < 2 || sc.PeakReplicas > 3 {
		t.Fatalf("peak replicas = %d", sc.PeakReplicas)
	}
	if rep := r.Telemetry.ByName(telemetry.Replicas); rep == nil || int(rep.Max()) != sc.PeakReplicas {
		t.Fatalf("replica gauge peak disagrees with scaling stats")
	}
	// Scale operations (boot decisions and drains) respect the cooldown.
	var lastOp sim.Time
	seenOp := false
	for _, e := range r.ScaleEvents {
		if e.Kind != "boot" && e.Kind != "down" {
			continue
		}
		if seenOp {
			if gap := (e.At - lastOp).Sec(); gap < cooldown {
				t.Fatalf("scale ops %0.1fs apart, cooldown is %.0fs: %+v", gap, cooldown, r.ScaleEvents)
			}
		}
		lastOp, seenOp = e.At, true
	}
	// Each boot has a matching activation after the boot delay.
	boots, ups := 0, 0
	for _, e := range r.ScaleEvents {
		switch e.Kind {
		case "boot":
			boots++
		case "up":
			ups++
		}
	}
	// A boot decided near run end may not activate before the run
	// finishes, so boots can exceed ups by the still-in-flight ones.
	if ups != sc.ScaleUps || boots < ups {
		t.Fatalf("event log has %d boots / %d ups, scaling stats say %d", boots, ups, sc.ScaleUps)
	}
	// The run histograms split total demand: every abandoned response is
	// also a served response, so the abandoned count can never exceed it.
	if r.ServedHist == nil || r.AbandonedHist == nil {
		t.Fatal("run histograms missing")
	}
	if r.AbandonedHist.Count() > r.ServedHist.Count() {
		t.Fatalf("abandoned %d > served %d", r.AbandonedHist.Count(), r.ServedHist.Count())
	}
}

// TestClusterRunDeterminism: same seed, same cluster topology, same
// trace — including the scale-event log.
func TestClusterRunDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := shortConfig(Virtualized, MixBrowsing)
		cfg.Clients = 100
		cfg.Duration = 40 * sim.Second
		cfg.Topology = &tiers.Topology{
			WebReplicas:    2,
			MaxWebReplicas: 3,
			DBReadReplicas: 1,
			Machines:       2,
			LB:             tiers.LBLeastInFlight,
			Autoscaler:     &tiers.AutoscalerSpec{SLOMillis: 200, BootSeconds: 4, CooldownSeconds: 8},
		}
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Completed != b.Completed {
		t.Fatalf("completed %d vs %d", a.Completed, b.Completed)
	}
	if !reflect.DeepEqual(a.ScaleEvents, b.ScaleEvents) {
		t.Fatalf("scale events diverged:\n  %+v\n  %+v", a.ScaleEvents, b.ScaleEvents)
	}
	if !reflect.DeepEqual(a.ReplicaServed, b.ReplicaServed) {
		t.Fatalf("replica split diverged: %v vs %v", a.ReplicaServed, b.ReplicaServed)
	}
	if !reflect.DeepEqual(a.Telemetry.ByName(telemetry.LatencyP95).Values, b.Telemetry.ByName(telemetry.LatencyP95).Values) {
		t.Fatal("latency series diverged")
	}
}

// TestTopologyConfigValidation covers the config-level rules: clusters
// are virtualized-only and incompatible with consolidated pairs.
func TestTopologyConfigValidation(t *testing.T) {
	cfg := shortConfig(Physical, MixBrowsing)
	cfg.Topology = &tiers.Topology{WebReplicas: 2}
	if err := cfg.Validate(); err == nil {
		t.Fatal("physical cluster topology should be rejected")
	}
	cfg = shortConfig(Physical, MixBrowsing)
	cfg.Topology = &tiers.Topology{} // degenerate: allowed anywhere
	if err := cfg.Validate(); err != nil {
		t.Fatalf("degenerate topology on physical rejected: %v", err)
	}
	cfg = shortConfig(Virtualized, MixBrowsing)
	cfg.Pairs = 2
	cfg.Topology = &tiers.Topology{WebReplicas: 2}
	if err := cfg.Validate(); err == nil {
		t.Fatal("cluster topology with consolidated pairs should be rejected")
	}
	cfg = shortConfig(Virtualized, MixBrowsing)
	cfg.Topology = &tiers.Topology{WebReplicas: -1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid topology should fail config validation")
	}
}
