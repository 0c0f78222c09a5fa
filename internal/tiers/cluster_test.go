package tiers

import (
	"encoding/json"
	"reflect"
	"testing"

	"vwchar/internal/hw"
	"vwchar/internal/load"
	"vwchar/internal/osmodel"
	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/xen"
)

func TestTopologyValidate(t *testing.T) {
	valid := func(mut func(*Topology)) error {
		topo := Topology{
			WebReplicas:    2,
			MaxWebReplicas: 4,
			DBReadReplicas: 1,
			LB:             LBJoinShortestQueue,
			Machines:       2,
		}
		if mut != nil {
			mut(&topo)
		}
		return topo.Validate()
	}
	if err := valid(nil); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	if err := (&Topology{}).Validate(); err != nil {
		t.Fatalf("zero topology rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Topology)
	}{
		{"web replicas over cap", func(p *Topology) { p.WebReplicas = MaxWebReplicaCap + 1; p.MaxWebReplicas = 0 }},
		{"max below initial", func(p *Topology) { p.MaxWebReplicas = 1 }},
		{"db replicas over cap", func(p *Topology) { p.DBReadReplicas = MaxDBReadReplicaCap + 1 }},
		{"unknown lb", func(p *Topology) { p.LB = "random-2" }},
		{"machines over cap", func(p *Topology) { p.Machines = MaxMachineCap + 1 }},
		{"negative lag", func(p *Topology) { p.ReplicaLagSeconds = -1 }},
		{"autoscaler without headroom", func(p *Topology) {
			p.WebReplicas, p.MaxWebReplicas = 2, 2
			p.Autoscaler = &AutoscalerSpec{SLOMillis: 500}
		}},
		{"autoscaler unknown policy", func(p *Topology) {
			p.Autoscaler = &AutoscalerSpec{Policy: "oracle", SLOMillis: 500}
		}},
		{"autoscaler zero slo", func(p *Topology) {
			p.Autoscaler = &AutoscalerSpec{}
		}},
	}
	for _, tc := range cases {
		if err := valid(tc.mut); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestTopologyJSONRoundTrip(t *testing.T) {
	topo := Topology{
		WebReplicas:       2,
		MaxWebReplicas:    6,
		DBReadReplicas:    2,
		LB:                LBLeastInFlight,
		Machines:          3,
		ReplicaLagSeconds: 0.25,
		Autoscaler: &AutoscalerSpec{
			Policy:           AutoscalePredictive,
			SLOMillis:        350,
			ScaleUpWindows:   3,
			ScaleDownWindows: 20,
			LowFraction:      0.2,
			CooldownSeconds:  45,
			BootSeconds:      15,
			LookaheadWindows: 4,
		},
	}
	b, err := json.Marshal(&topo)
	if err != nil {
		t.Fatal(err)
	}
	var back Topology
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(topo, back) {
		t.Fatalf("round trip changed the topology:\n  in  %+v\n  out %+v", topo, back)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped topology invalid: %v", err)
	}
}

func TestTopologyNormalizedAndDegenerate(t *testing.T) {
	n := Topology{}.Normalized()
	want := Topology{WebReplicas: 1, MaxWebReplicas: 1, Machines: 1, LB: LBRoundRobin}
	if !reflect.DeepEqual(n, want) {
		t.Fatalf("zero topology normalized to %+v", n)
	}
	if !(Topology{}).IsDegenerate() {
		t.Fatal("zero topology should be degenerate")
	}
	if !(Topology{WebReplicas: 1, LB: LBJoinShortestQueue}).IsDegenerate() {
		t.Fatal("single replica is degenerate regardless of LB policy")
	}
	for _, topo := range []Topology{
		{WebReplicas: 2},
		{DBReadReplicas: 1},
		{Machines: 2},
		{MaxWebReplicas: 2, Autoscaler: &AutoscalerSpec{SLOMillis: 500}},
	} {
		if topo.IsDegenerate() {
			t.Fatalf("%+v should not be degenerate", topo)
		}
	}
	// Read replicas default to a non-zero lag window.
	if lag := (Topology{DBReadReplicas: 1}).Normalized().ReplicaLagSeconds; lag <= 0 {
		t.Fatalf("replica lag defaulted to %v", lag)
	}
	if n := (Topology{MaxWebReplicas: 3, DBReadReplicas: 2}).Normalized(); n.VMCount() != 6 {
		t.Fatalf("VMCount = %d, want 6", n.VMCount())
	}
}

// pickCluster builds a bare cluster for balancer decision tests: the
// replicas never serve, only their load counters matter.
func pickCluster(lb LBPolicy, n int) *WebCluster {
	k := sim.NewKernel()
	webs := make([]*WebAppServer, n)
	for i := range webs {
		webs[i] = &WebAppServer{}
	}
	return NewWebCluster(k, webs, n, NewLoadBalancer(lb))
}

func TestRoundRobinCyclesActiveOnly(t *testing.T) {
	c := pickCluster(LBRoundRobin, 4)
	c.state[2] = ReplicaParked
	c.activeCount = 3
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, c.lb.Pick(c))
	}
	want := []int{0, 1, 3, 0, 1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-robin picks = %v, want %v", got, want)
	}
}

func TestLeastInFlightPicksLightestReplica(t *testing.T) {
	c := pickCluster(LBLeastInFlight, 3)
	c.Replicas[0].inflight = 5
	c.Replicas[1].inflight = 1
	c.Replicas[2].inflight = 3
	if got := c.lb.Pick(c); got != 1 {
		t.Fatalf("picked %d, want 1", got)
	}
	// A parked replica is invisible however light it is.
	c.Replicas[1].inflight = 0
	c.state[1] = ReplicaParked
	if got := c.lb.Pick(c); got != 2 {
		t.Fatalf("picked %d, want 2", got)
	}
}

func TestJSQPicksShortestQueue(t *testing.T) {
	c := pickCluster(LBJoinShortestQueue, 3)
	c.Replicas[0].active = 2
	c.Replicas[0].queue = make([]*webRequest, 3) // depth 5
	c.Replicas[1].active = 4                     // depth 4
	c.Replicas[2].active = 2
	c.Replicas[2].queue = make([]*webRequest, 4) // depth 6
	if got := c.lb.Pick(c); got != 1 {
		t.Fatalf("picked %d, want 1", got)
	}
}

func TestScaleUpDownLifecycle(t *testing.T) {
	c := pickCluster(LBRoundRobin, 3)
	k := c.k
	// Re-park everything above the first replica.
	c.state[1], c.state[2] = ReplicaParked, ReplicaParked
	c.activeCount, c.peakActive = 1, 1

	if !c.ScaleUp(5*sim.Second, "test") {
		t.Fatal("scale-up with headroom refused")
	}
	if c.state[1] != ReplicaBooting || c.ActiveReplicas() != 1 {
		t.Fatalf("booting replica took traffic early: state=%v active=%d", c.state[1], c.ActiveReplicas())
	}
	k.Run(6 * sim.Second)
	if c.state[1] != ReplicaActive || c.ActiveReplicas() != 2 {
		t.Fatalf("boot did not complete: state=%v active=%d", c.state[1], c.ActiveReplicas())
	}
	if !c.ScaleUp(0, "test") || c.ActiveReplicas() != 3 {
		t.Fatal("zero-delay scale-up should activate immediately")
	}
	if c.ScaleUp(0, "test") {
		t.Fatal("scale-up past MaxWebReplicas should refuse")
	}
	if !c.ScaleDown("test") || !c.ScaleDown("test") {
		t.Fatal("drains above the floor refused")
	}
	if c.ScaleDown("test") {
		t.Fatal("the last replica must never drain")
	}
	if c.PeakActive() != 3 {
		t.Fatalf("peak active = %d, want 3", c.PeakActive())
	}
	kinds := make(map[string]int)
	for _, e := range c.Events {
		kinds[e.Kind]++
	}
	if kinds["boot"] != 2 || kinds["up"] != 2 || kinds["down"] != 2 {
		t.Fatalf("event log %v, want 2 boot / 2 up / 2 down", kinds)
	}
}

// newClusterRig assembles the full VM stack with n web replicas behind
// the given balancer, all sharing one DB on one host.
func newClusterRig(tb testing.TB, n, clients int, lb LBPolicy) (*sim.Kernel, *WebCluster, *Driver) {
	tb.Helper()
	k := sim.NewKernel()
	src := rng.NewSource(33)
	app, err := rubis.NewApp(smallDataset(), src.Stream("data"))
	if err != nil {
		tb.Fatal(err)
	}
	host := hw.NewServer(k, hw.ProLiantSpec("host"))
	hv := xen.New(k, host, xen.DefaultParams())
	webDoms := make([]*xen.Domain, n)
	for i := range webDoms {
		webDoms[i] = hv.CreateGuest("web", 2, 2<<30, 256)
	}
	dbDom := hv.CreateGuest("db", 2, 2<<30, 256)
	dbBE := &VMBackend{HV: hv, Dom: dbDom}
	db := NewDBServer(k, dbBE, app, DefaultDBParams("vm"))
	dbc := NewDBCluster(db, nil, 0)
	webs := make([]*WebAppServer, n)
	for i, dom := range webDoms {
		be := &VMBackend{HV: hv, Dom: dom}
		paths := []PathPair{{To: VMPath(hv, dom, dbDom), From: VMPath(hv, dbDom, dom)}}
		webs[i] = NewWebAppServer(k, be, dbc, paths, DefaultWebParams("vm"))
	}
	fe := NewWebCluster(k, webs, n, NewLoadBalancer(lb))
	driver := NewDriver(k, app, rubis.BrowsingMix(), fe, rubis.DefaultCostParams(), clients, src)
	return k, fe, driver
}

// TestJSQNoWorseThanRoundRobinMeanWait is the queueing oracle: with
// variable service times, join-shortest-queue never does worse than
// blind round-robin on mean response time (JSQ is throughput-optimal
// among non-anticipating policies; RR ignores queue state entirely).
// The runs are deterministic, so this is a fixed comparison, not a
// statistical one.
func TestJSQNoWorseThanRoundRobinMeanWait(t *testing.T) {
	meanFor := func(lb LBPolicy) float64 {
		k, fe, driver := newClusterRig(t, 3, 420, lb)
		driver.Start()
		k.Run(90 * sim.Second)
		if driver.Completed < 1000 {
			t.Fatalf("%s completed only %d requests; the comparison would be vacuous", lb, driver.Completed)
		}
		var peak int
		for _, r := range fe.Replicas {
			if r.QueuePeak > peak {
				peak = r.QueuePeak
			}
		}
		if peak < 2 {
			t.Fatalf("%s never queued (peak %d); the oracle needs contention", lb, peak)
		}
		return driver.MeanResponseTime()
	}
	rr := meanFor(LBRoundRobin)
	jsq := meanFor(LBJoinShortestQueue)
	if jsq > rr {
		t.Fatalf("JSQ mean response %.6f s > round-robin %.6f s", jsq, rr)
	}
}

// TestRoundRobinSpreadsLoad checks the balancer actually spreads work:
// with equal replicas, round-robin splits dispatches exactly evenly.
func TestRoundRobinSpreadsLoad(t *testing.T) {
	k, fe, driver := newClusterRig(t, 3, 120, LBRoundRobin)
	driver.Start()
	k.Run(60 * sim.Second)
	var min, max uint64
	for i, r := range fe.Replicas {
		if i == 0 || r.Dispatched < min {
			min = r.Dispatched
		}
		if r.Dispatched > max {
			max = r.Dispatched
		}
	}
	if min == 0 || max-min > 1 {
		t.Fatalf("round-robin dispatch counts spread %d..%d, want within 1", min, max)
	}
	var served uint64
	for _, r := range fe.Replicas {
		served += r.Served
	}
	if served != driver.Completed {
		t.Fatalf("cluster served %d != driver completed %d", served, driver.Completed)
	}
}

// newStubClusterRig is the allocation test bed: real WebCluster and
// WebAppServers over null backends, so the measured path is exactly
// the dispatch machinery (pick, pooled dispatch slot, transfer hops,
// worker accounting) with the engine and hardware stubbed to timers.
func newStubClusterRig(tb testing.TB, n int, lb LBPolicy) (*sim.Kernel, *Driver) {
	tb.Helper()
	k := sim.NewKernel()
	src := rng.NewSource(77)
	app, err := rubis.NewApp(smallDataset(), src.Stream("data"))
	if err != nil {
		tb.Fatal(err)
	}
	srv := hw.NewServer(k, hw.ProLiantSpec("stub"))
	be := &nullBackend{k: k, os: osmodel.New(10), mem: srv.Mem}
	dbc := NewDBCluster(NewDBServer(k, be, app, DefaultDBParams("vm")), nil, 0)
	webs := make([]*WebAppServer, n)
	for i := range webs {
		webs[i] = NewWebAppServer(k, be, dbc, []PathPair{{To: stubPath{k}, From: stubPath{k}}}, DefaultWebParams("vm"))
	}
	fe := NewWebCluster(k, webs, n, NewLoadBalancer(lb))
	spec := load.Spec{Kind: load.Poisson, Rate: 40, SessionMean: 8}
	drv, err := NewOpenDriver(k, app, staticModel{}, fe, rubis.DefaultCostParams(), &spec, src)
	if err != nil {
		tb.Fatal(err)
	}
	return k, drv
}

// stubPath moves inter-tier bytes as a bare timer.
type stubPath struct{ k *sim.Kernel }

func (p stubPath) Transfer(bytes float64, done sim.Callback, arg any) {
	if done != nil {
		p.k.AfterCall(20*sim.Microsecond, done, arg)
	}
}

// TestLBDispatchZeroAlloc pins the tentpole's dispatch bar: in steady
// state the balanced request path — every policy — allocates nothing
// per event.
func TestLBDispatchZeroAlloc(t *testing.T) {
	for _, lb := range []LBPolicy{LBRoundRobin, LBLeastInFlight, LBJoinShortestQueue} {
		t.Run(string(lb), func(t *testing.T) {
			k, drv := newStubClusterRig(t, 4, lb)
			drv.Start()
			k.Run(300 * sim.Second)
			if drv.Completed == 0 {
				t.Fatal("stub cluster served nothing; the guard would be vacuous")
			}
			allocs := testing.AllocsPerRun(5000, func() {
				if !k.Step() {
					t.Fatal("event queue drained")
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state dispatch allocates %v allocs/op, want 0", allocs)
			}
		})
	}
}

// BenchmarkLBDispatch is the CI allocation gate (scripts/bench.sh and
// the workflow assert 0 allocs/op): steady-state event throughput of
// the cluster dispatch path per balancer policy.
func BenchmarkLBDispatch(b *testing.B) {
	for _, lb := range []LBPolicy{LBRoundRobin, LBLeastInFlight, LBJoinShortestQueue} {
		b.Run(string(lb), func(b *testing.B) {
			k, drv := newStubClusterRig(b, 4, lb)
			drv.Start()
			k.Run(300 * sim.Second)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !k.Step() {
					b.Fatal("event queue drained")
				}
			}
		})
	}
}

// TestDBClusterRouting pins the read/write routing rules: writes stamp
// the session and stay on the primary, reads inside the lag window
// stick with it (read-your-writes), and cold reads fan out round-robin
// across the replicas.
func TestDBClusterRouting(t *testing.T) {
	c := &DBCluster{
		Primary:  &DBServer{},
		Replicas: []*DBServer{{}, {}},
		Lag:      sim.Second,
	}
	var rt Route
	if got := c.route(true, 10*sim.Second, &rt); got != 0 {
		t.Fatalf("write routed to %d, want primary", got)
	}
	if got := c.route(false, 10*sim.Second+500*sim.Millisecond, &rt); got != 0 {
		t.Fatalf("read inside the lag window routed to %d, want primary", got)
	}
	if got := c.route(false, 12*sim.Second, &rt); got == 0 {
		t.Fatal("cold read should fan out to a replica")
	}
	// Round-robin across the two replicas for lag-free sessions.
	a := c.route(false, 20*sim.Second, nil)
	b := c.route(false, 20*sim.Second, nil)
	if a == b || a == 0 || b == 0 {
		t.Fatalf("replica fan-out picked %d then %d, want alternating replicas", a, b)
	}
	rt.Reset()
	if rt.wrote {
		t.Fatal("Reset kept the write stamp")
	}
	// The degenerate cluster routes everything to the primary.
	d := NewDBCluster(&DBServer{}, nil, 0)
	if d.route(false, 0, &rt) != 0 || d.route(true, 0, &rt) != 0 {
		t.Fatal("degenerate cluster must route to the primary")
	}
}
