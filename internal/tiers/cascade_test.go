package tiers

import (
	"testing"

	"vwchar/internal/faults"
	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/telemetry"
	"vwchar/internal/timeseries"
)

// TestEjectBackfillsMinActive is the autoscaler-vs-failure regression:
// when a health-check ejection would drop the active count below the
// cluster floor and parked headroom exists, a replacement boots —
// ejection cannot starve minActive.
func TestEjectBackfillsMinActive(t *testing.T) {
	c := pickCluster(LBRoundRobin, 2)
	c.state[1] = ReplicaParked
	c.activeCount, c.peakActive = 1, 1
	c.SetBackfillBoot(5 * sim.Second)

	c.Eject(0, "health check")
	if c.ActiveReplicas() != 0 {
		t.Fatalf("active after eject = %d, want 0 (backfill still booting)", c.ActiveReplicas())
	}
	if c.state[1] != ReplicaBooting {
		t.Fatalf("parked replica state = %v, want booting backfill", c.state[1])
	}
	c.k.Run(6 * sim.Second)
	if c.state[1] != ReplicaActive || c.ActiveReplicas() != 1 {
		t.Fatalf("backfill did not land: state=%v active=%d", c.state[1], c.ActiveReplicas())
	}
	backfills := 0
	for _, e := range c.Events {
		if e.Kind == "boot" && e.Reason == "eject backfill" {
			backfills++
		}
	}
	if backfills != 1 {
		t.Fatalf("boot events noted %d backfills, want 1: %+v", backfills, c.Events)
	}

	// Without headroom the ejection stands — nothing to boot — and the
	// cluster reports zero active; the LB then fast-fails.
	c2 := pickCluster(LBRoundRobin, 1)
	c2.Eject(0, "health check")
	if c2.ActiveReplicas() != 0 || c2.Booting() != 0 {
		t.Fatalf("no-headroom eject: active=%d booting=%d, want 0/0", c2.ActiveReplicas(), c2.Booting())
	}
}

// TestAutoscalerNoDoubleProvision is the other half of the satellite:
// while a scale-up is still booting, a continuing hot streak must not
// boot a second replica for the same overload — even after the
// cooldown expires (boot longer than cooldown is the danger zone).
func TestAutoscalerNoDoubleProvision(t *testing.T) {
	c := pickCluster(LBRoundRobin, 3)
	c.state[1], c.state[2] = ReplicaParked, ReplicaParked
	c.activeCount, c.peakActive = 1, 1

	tel := timeseries.NewSet(
		timeseries.New(telemetry.LatencyP95, "ms"),
		timeseries.New(telemetry.Throughput, "req/s"),
	)
	a := NewAutoscaler(c, tel, AutoscalerSpec{
		SLOMillis:       100,
		ScaleUpWindows:  1,
		CooldownSeconds: 2,
		BootSeconds:     40,
	})

	// Every window is hot; sample at the 2 s collector cadence.
	now := sim.Time(0)
	for i := 0; i < 15; i++ {
		now += 2 * sim.Second
		appendWindow(tel, 500, 30)
		a.OnSample(now)
	}
	// 30 s of hot windows with cooldown 2 s: without the guard this
	// boots both parked replicas; with it the second stays parked until
	// the first boot (40 s) lands.
	if got := c.Booting(); got != 1 {
		t.Fatalf("replicas booting = %d, want exactly 1 while the first boot is pending", got)
	}
	boots := 0
	for _, e := range c.Events {
		if e.Kind == "boot" {
			boots++
		}
	}
	if boots != 1 {
		t.Fatalf("boot events = %d, want 1 (no double-provision)", boots)
	}

	// Once the boot lands the guard releases: the still-hot cluster may
	// scale again.
	c.k.Run(45 * sim.Second)
	if c.ActiveReplicas() != 2 {
		t.Fatalf("first boot did not land: active=%d", c.ActiveReplicas())
	}
	now = c.k.Now() + 2*sim.Second
	appendWindow(tel, 500, 30)
	a.OnSample(now)
	if got := c.Booting() + c.ActiveReplicas(); got != 3 {
		t.Fatalf("post-boot hot window did not provision: active+booting=%d, want 3", got)
	}
}

// TestHazardCrashDeterminism pins the hazard's one-draw-per-replica-
// per-window contract: the same rig produces the identical crash log
// twice, and an armed-but-idle hazard (threshold never crossed) leaves
// the serving path's outcome identical to no hazard at all.
func TestHazardCrashDeterminism(t *testing.T) {
	runOnce := func(threshold float64) (HazardStats, uint64) {
		k, drv := newStubClusterRig(t, 3, LBRoundRobin)
		fe := drv.web.(*WebCluster)
		// Single-worker replicas: any request in flight at a window
		// boundary reads as util >= 1, so a floor threshold is crossable.
		for _, r := range fe.Replicas {
			r.params.Workers = 1
		}
		h := NewHazard(k, fe, faults.HazardSpec{
			UtilThreshold: threshold, CrashProb: 0.5, MTTRSeconds: 20, MaxCrashes: 5,
		}, rng.NewSource(5).Stream("fault-hazard"))
		// Sample densely so the fast stub service is actually caught
		// mid-request; the contract under test is determinism, not the
		// production 2 s cadence.
		k.Every(10*sim.Millisecond, 10*sim.Millisecond, h.OnSample)
		drv.Start()
		k.Run(120 * sim.Second)
		return h.Stats, drv.Completed
	}
	s1, c1 := runOnce(0.5)
	s2, c2 := runOnce(0.5)
	if c1 != c2 || len(s1.Crashes) != len(s2.Crashes) {
		t.Fatalf("hazard run not deterministic: %d/%d crashes, %d/%d completed",
			len(s1.Crashes), len(s2.Crashes), c1, c2)
	}
	for i := range s1.Crashes {
		if s1.Crashes[i] != s2.Crashes[i] {
			t.Fatalf("crash %d differs: %+v vs %+v", i, s1.Crashes[i], s2.Crashes[i])
		}
	}
	if len(s1.Crashes) == 0 {
		t.Fatal("hazard never fired at a floor threshold; the determinism check is vacuous")
	}

	// Armed but never firing: the serving path is untouched.
	idle, cIdle := runOnce(1e9)
	if len(idle.Crashes) != 0 || idle.PeakRate != 0 {
		t.Fatalf("unreachable threshold still crashed: %+v", idle)
	}
	k, drv := newStubClusterRig(t, 3, LBRoundRobin)
	for _, r := range drv.web.(*WebCluster).Replicas {
		r.params.Workers = 1
	}
	drv.Start()
	k.Run(120 * sim.Second)
	if drv.Completed != cIdle {
		t.Fatalf("armed-but-idle hazard perturbed the run: %d completed vs %d without", cIdle, drv.Completed)
	}
}

// TestOverloadBrownout pins the controller's semantics on a hand-built
// cluster: the level climbs under sustained overload and falls when it
// clears, optional reads are dropped by error diffusion (writes
// never), and the queue bound fast-fails only while degraded.
func TestOverloadBrownout(t *testing.T) {
	c := pickCluster(LBRoundRobin, 2)
	for _, r := range c.Replicas {
		r.params.Workers = 4
	}
	o := NewOverload(c, faults.BrownoutSpec{EnterUtil: 0.5, ExitUtil: 0.25, DropFraction: 0.5, MaxLevel: 2, QueueBound: 6})

	// Saturate: queue depth 4 of 4 workers on both replicas.
	for _, r := range c.Replicas {
		r.active = 4
	}
	o.OnSample(0)
	o.OnSample(0)
	o.OnSample(0)
	if o.Level() != 2 {
		t.Fatalf("level after 3 hot windows = %d, want capped at 2", o.Level())
	}
	if o.Stats.DegradedWindows != 3 || o.Stats.PeakLevel != 2 {
		t.Fatalf("stats %+v, want 3 degraded windows at peak 2", o.Stats)
	}

	// At max level every optional read is dropped; writes never are.
	drops := 0
	for i := 0; i < 10; i++ {
		if o.admitDrop(&rubis.Result{}) {
			drops++
		}
	}
	if drops != 10 {
		t.Fatalf("max-level brownout dropped %d of 10 optional reads, want all", drops)
	}
	if o.admitDrop(&rubis.Result{IsWrite: true}) {
		t.Fatal("brownout dropped a write")
	}

	// Queue bound: replica 0 is over the bound while degraded.
	c.Replicas[0].queue = make([]*webRequest, 3) // depth 4+3=7 > bound 6
	if !o.boundExceeded(0) {
		t.Fatal("queue bound not enforced while degraded")
	}

	// Recovery: idle windows walk the level back down; healthy level 0
	// admits everything and ignores the bound.
	c.Replicas[0].queue = nil
	for _, r := range c.Replicas {
		r.active = 0
	}
	o.OnSample(0)
	o.OnSample(0)
	if o.Level() != 0 {
		t.Fatalf("level after 2 calm windows = %d, want 0", o.Level())
	}
	if o.admitDrop(&rubis.Result{}) {
		t.Fatal("healthy controller dropped a read")
	}
	if o.boundExceeded(0) {
		t.Fatal("queue bound applied while healthy")
	}
	// Fractional drop at level 1: error diffusion drops every other
	// optional read at DropFraction 0.5.
	for _, r := range c.Replicas {
		r.active = 4
	}
	o.OnSample(0)
	if o.Level() != 1 {
		t.Fatalf("level = %d, want 1", o.Level())
	}
	drops = 0
	for i := 0; i < 10; i++ {
		if o.admitDrop(&rubis.Result{}) {
			drops++
		}
	}
	if drops != 5 {
		t.Fatalf("error diffusion at 0.5 dropped %d of 10, want 5", drops)
	}
}

// TestCascadeDispatchZeroAlloc pins the satellite bar: the dispatch
// path with the hazard armed (ticking every window, never firing) and
// the overload controller consulted on every request allocates nothing
// per event in steady state.
func TestCascadeDispatchZeroAlloc(t *testing.T) {
	spec := faults.ResilienceSpec{
		TimeoutMillis: 1000, Retries: 2, BackoffMillis: 50, RetryBudget: 0.25,
	}
	k, drv, fe, g := newGuardedStubRig(t, 4, 0, spec)
	h := NewHazard(k, fe, faults.HazardSpec{UtilThreshold: 1e9, CrashProb: 0.5, MTTRSeconds: 30},
		rng.NewSource(5).Stream("fault-hazard"))
	o := NewOverload(fe, faults.BrownoutSpec{EnterUtil: 1e9})
	fe.SetOverload(o)
	g.SetOverload(o)
	k.Every(2*sim.Second, 2*sim.Second, h.OnSample)
	k.Every(2*sim.Second, 2*sim.Second, o.OnSample)
	drv.Start()
	k.Run(300 * sim.Second)
	if drv.Completed == 0 {
		t.Fatal("cascade stub rig served nothing; the gate would be vacuous")
	}
	if len(h.Stats.Crashes) != 0 || o.Level() != 0 {
		t.Fatalf("hazard/brownout fired under the unreachable thresholds: %d crashes, level %d",
			len(h.Stats.Crashes), o.Level())
	}
	allocs := testing.AllocsPerRun(5000, func() {
		if !k.Step() {
			t.Fatal("event queue drained")
		}
	})
	if allocs != 0 {
		t.Fatalf("cascade-armed dispatch allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkDispatchWithCascade is the CI allocation gate for the
// cascade-armed path (scripts/bench.sh asserts 0 allocs/op): steady-
// state event throughput with the hazard and overload controller
// configured but quiescent.
func BenchmarkDispatchWithCascade(b *testing.B) {
	spec := faults.ResilienceSpec{
		TimeoutMillis: 1000, Retries: 2, BackoffMillis: 50, RetryBudget: 0.25,
	}
	k, drv, fe, g := newGuardedStubRig(b, 4, 0, spec)
	h := NewHazard(k, fe, faults.HazardSpec{UtilThreshold: 1e9, CrashProb: 0.5, MTTRSeconds: 30},
		rng.NewSource(5).Stream("fault-hazard"))
	o := NewOverload(fe, faults.BrownoutSpec{EnterUtil: 1e9})
	fe.SetOverload(o)
	g.SetOverload(o)
	k.Every(2*sim.Second, 2*sim.Second, h.OnSample)
	k.Every(2*sim.Second, 2*sim.Second, o.OnSample)
	drv.Start()
	k.Run(300 * sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.Step() {
			b.Fatal("event queue drained")
		}
	}
}
