package tiers

import (
	"testing"

	"vwchar/internal/cachetier"
	"vwchar/internal/faults"
	"vwchar/internal/hw"
	"vwchar/internal/load"
	"vwchar/internal/osmodel"
	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
)

// fakeFE is a controllable Frontend: every dispatch responds after
// delay, stamping OutcomeFailed when fail says so.
type fakeFE struct {
	k     *sim.Kernel
	delay sim.Time
	fail  func(call int) bool
	calls int
}

func (f *fakeFE) Dispatch(res *rubis.Result, rt *Route, done sim.Callback, arg any) {
	f.calls++
	if f.fail != nil && f.fail(f.calls) && rt != nil {
		rt.Outcome = OutcomeFailed
	}
	d := f.delay
	if d <= 0 {
		d = sim.Millisecond
	}
	f.k.AfterCall(d, done, arg)
}

func countDone(arg any) { *(arg.(*int))++ }

func newGuard(k *sim.Kernel, fe Frontend, spec faults.ResilienceSpec) *Guard {
	return NewGuard(k, fe, spec, rng.NewSource(1).Stream("jitter"))
}

// TestGuardTimeoutExhaustsRetries pins the timeout path: a black-holed
// backend times out the initial try and both retries, the request ends
// OutcomeTimedOut, and the client callback fires exactly once even
// after the stale responses eventually arrive.
func TestGuardTimeoutExhaustsRetries(t *testing.T) {
	k := sim.NewKernel()
	fe := &fakeFE{k: k, delay: 5 * sim.Second}
	g := newGuard(k, fe, faults.ResilienceSpec{TimeoutMillis: 100, Retries: 2, BackoffMillis: 10, RetryBudget: 100})
	var res rubis.Result
	var rt Route
	rt.Reset()
	n := 0
	g.Dispatch(&res, &rt, countDone, &n)
	k.Run(30 * sim.Second)
	if n != 1 {
		t.Fatalf("done fired %d times, want exactly once", n)
	}
	if rt.Outcome != OutcomeTimedOut {
		t.Fatalf("outcome %v, want timed-out", rt.Outcome)
	}
	if fe.calls != 3 {
		t.Fatalf("backend saw %d tries, want 1 + 2 retries", fe.calls)
	}
	if g.Stats.Timeouts != 3 || g.Stats.Retries != 2 {
		t.Fatalf("stats %+v, want 3 timeouts and 2 retries", g.Stats)
	}
}

// TestGuardRetryRecovers pins the happy retry: first try fails fast,
// second succeeds, the client sees OutcomeServed.
func TestGuardRetryRecovers(t *testing.T) {
	k := sim.NewKernel()
	fe := &fakeFE{k: k, fail: func(call int) bool { return call == 1 }}
	g := newGuard(k, fe, faults.ResilienceSpec{TimeoutMillis: 1000, Retries: 2, BackoffMillis: 10, RetryBudget: 100})
	var res rubis.Result
	var rt Route
	rt.Reset()
	n := 0
	g.Dispatch(&res, &rt, countDone, &n)
	k.Run(10 * sim.Second)
	if n != 1 || rt.Outcome != OutcomeServed {
		t.Fatalf("done=%d outcome=%v, want one served response", n, rt.Outcome)
	}
	if fe.calls != 2 || g.Stats.Retries != 1 {
		t.Fatalf("calls=%d retries=%d, want 2 and 1", fe.calls, g.Stats.Retries)
	}
}

// TestGuardRetryBudget pins the storm brake: with budget 0.1 over 10
// all-failing requests only one retry is allowed in total.
func TestGuardRetryBudget(t *testing.T) {
	k := sim.NewKernel()
	fe := &fakeFE{k: k, fail: func(int) bool { return true }}
	g := newGuard(k, fe, faults.ResilienceSpec{TimeoutMillis: 1000, Retries: 3, BackoffMillis: 10, RetryBudget: 0.1})
	n := 0
	routes := make([]Route, 10)
	results := make([]rubis.Result, 10)
	for i := range routes {
		routes[i].Reset()
		g.Dispatch(&results[i], &routes[i], countDone, &n)
	}
	k.Run(10 * sim.Second)
	if n != 10 {
		t.Fatalf("done fired %d times, want 10", n)
	}
	if g.Stats.Retries != 1 {
		t.Fatalf("budget 0.1 x 10 issued allowed %d retries, want 1", g.Stats.Retries)
	}
	if fe.calls != 11 {
		t.Fatalf("backend saw %d tries, want 10 + 1 budgeted retry", fe.calls)
	}
}

// TestGuardBreaker pins the circuit breaker: a full window of failures
// opens it, open-state requests shed without touching the backend, and
// after the open interval traffic flows again.
func TestGuardBreaker(t *testing.T) {
	k := sim.NewKernel()
	fe := &fakeFE{k: k, fail: func(int) bool { return true }}
	g := newGuard(k, fe, faults.ResilienceSpec{
		Breaker: &faults.BreakerSpec{ErrorThreshold: 0.5, WindowRequests: 4, OpenMillis: 500},
	})
	n := 0
	routes := make([]Route, 7)
	results := make([]rubis.Result, 7)
	for i := 0; i < 4; i++ {
		routes[i].Reset()
		g.Dispatch(&results[i], &routes[i], countDone, &n)
	}
	k.Run(100 * sim.Millisecond)
	if g.Stats.BreakerOpens != 1 {
		t.Fatalf("breaker opened %d times after a full failing window, want 1", g.Stats.BreakerOpens)
	}
	for i := 4; i < 6; i++ {
		routes[i].Reset()
		g.Dispatch(&results[i], &routes[i], countDone, &n)
	}
	k.Run(200 * sim.Millisecond)
	if routes[4].Outcome != OutcomeShed || routes[5].Outcome != OutcomeShed {
		t.Fatalf("open-breaker outcomes %v/%v, want shed", routes[4].Outcome, routes[5].Outcome)
	}
	if fe.calls != 4 || g.Stats.Sheds != 2 {
		t.Fatalf("calls=%d sheds=%d: shed requests must not reach the backend", fe.calls, g.Stats.Sheds)
	}
	// Past the open interval the breaker probes again.
	k.Run(700 * sim.Millisecond)
	routes[6].Reset()
	g.Dispatch(&results[6], &routes[6], countDone, &n)
	k.Run(sim.Second)
	if fe.calls != 5 {
		t.Fatalf("post-open request did not reach the backend (calls=%d)", fe.calls)
	}
	if n != 7 {
		t.Fatalf("done fired %d times, want 7", n)
	}
}

// TestClusterFastFailWithNoActiveReplica pins the LB's -1 path: with
// every replica ejected a dispatch fails fast with OutcomeFailed
// instead of hanging.
func TestClusterFastFailWithNoActiveReplica(t *testing.T) {
	k, drv := newStubClusterRig(t, 1, LBRoundRobin)
	fe := drv.web.(*WebCluster)
	fe.Replicas[0].crash()
	fe.Eject(0, "test")
	var res rubis.Result
	var rt Route
	rt.Reset()
	n := 0
	fe.Dispatch(&res, &rt, countDone, &n)
	k.Run(sim.Second)
	if n != 1 || rt.Outcome != OutcomeFailed {
		t.Fatalf("done=%d outcome=%v, want one fast failure", n, rt.Outcome)
	}
}

// TestHealthMonitorEjectReadmit pins ejection after the configured
// number of consecutive failed checks and readmission on recovery.
func TestHealthMonitorEjectReadmit(t *testing.T) {
	k, drv := newStubClusterRig(t, 3, LBRoundRobin)
	fe := drv.web.(*WebCluster)
	hm := NewHealthMonitor(k, fe, nil, faults.ResilienceSpec{HealthEverySeconds: 1, EjectAfterChecks: 2})
	hm.Start()
	drv.Start()
	// Crash off the tick grid so each subsequent Run horizon contains a
	// known number of health checks.
	k.Run(5300 * sim.Millisecond)
	fe.Replicas[1].crash()
	k.Run(6500 * sim.Millisecond)
	if fe.state[1] != ReplicaActive {
		t.Fatalf("replica 1 state %v one check after crash, want still active (EjectAfterChecks=2)", fe.state[1])
	}
	k.Run(10 * sim.Second)
	if fe.state[1] != ReplicaDown || fe.activeCount != 2 {
		t.Fatalf("replica 1 not ejected: state %v, active %d", fe.state[1], fe.activeCount)
	}
	fe.Replicas[1].restore()
	k.Run(15 * sim.Second)
	if fe.state[1] != ReplicaActive || fe.activeCount != 3 {
		t.Fatalf("recovered replica not readmitted: state %v, active %d", fe.state[1], fe.activeCount)
	}
}

// taggedPath is a stub path whose identity survives comparison, so the
// failover test can verify the web-side path swap.
type taggedPath struct {
	k  *sim.Kernel
	id int
}

func (p taggedPath) Transfer(bytes float64, done sim.Callback, arg any) {
	if done != nil {
		p.k.AfterCall(20*sim.Microsecond, done, arg)
	}
}

// TestFailoverPromotion pins DB primary failover: the monitor waits out
// the detection window, promotes the first healthy replica, routing
// index 0 then reaches the promoted server over that server's own path,
// and read-your-writes routing keeps pointing at the live primary
// (index 0) across the promotion.
func TestFailoverPromotion(t *testing.T) {
	k := sim.NewKernel()
	src := rng.NewSource(9)
	app, err := rubis.NewApp(smallDataset(), src.Stream("data"))
	if err != nil {
		t.Fatal(err)
	}
	srv := hw.NewServer(k, hw.ProLiantSpec("stub"))
	be := &nullBackend{k: k, os: osmodel.New(10), mem: srv.Mem}
	primary := NewDBServer(k, be, app, DefaultDBParams("vm"))
	replica := NewDBServer(k, be, app, DefaultDBParams("vm"))
	dbc := NewDBCluster(primary, []*DBServer{replica}, sim.Second)
	paths := []PathPair{
		{To: taggedPath{k, 0}, From: taggedPath{k, 0}},
		{To: taggedPath{k, 1}, From: taggedPath{k, 1}},
	}
	web := NewWebAppServer(k, be, dbc, paths, DefaultWebParams("vm"))
	fe := NewWebCluster(k, []*WebAppServer{web}, 1, NewLoadBalancer(LBRoundRobin))
	hm := NewHealthMonitor(k, fe, dbc, faults.ResilienceSpec{HealthEverySeconds: 1, FailoverDetectSeconds: 3})
	hm.Start()
	k.Run(2 * sim.Second)
	primary.crash()
	k.Run(20 * sim.Second)

	if len(hm.Failovers) != 1 {
		t.Fatalf("got %d failovers, want 1", len(hm.Failovers))
	}
	f := hm.Failovers[0]
	if f.NewPrimary != 1 {
		t.Fatalf("promoted routing index %d, want 1", f.NewPrimary)
	}
	gap := f.PromotedAt - f.DetectedAt
	if gap < 3*sim.Second || gap > 5*sim.Second {
		t.Fatalf("promotion %.1fs after detection, want the 3s window (+ tick slack)", gap.Sec())
	}
	if dbc.Primary != replica || dbc.Replicas[0] != primary {
		t.Fatal("Promote did not swap the primary and replica slots")
	}
	if got := web.dbPaths[dbc.server(0).id].To.(taggedPath).id; got != 1 {
		t.Fatalf("routing index 0 reaches the path tagged %d, want the promoted server's 1", got)
	}

	// Read-your-writes across the promotion: a fresh write routes to
	// index 0, and a lagged read sticks with it — which is now the
	// promoted, healthy instance.
	var rt Route
	rt.Reset()
	now := k.Now()
	if i := dbc.route(true, now, &rt); i != 0 {
		t.Fatalf("write routed to %d, want primary", i)
	}
	if i := dbc.route(false, now+500*sim.Millisecond, &rt); i != 0 {
		t.Fatalf("lagged read routed to %d, want primary", i)
	}
	if dbc.server(0).down {
		t.Fatal("routing index 0 still points at the crashed instance")
	}
}

// countingPath is a stub path that counts its transfers.
type countingPath struct {
	k *sim.Kernel
	n *int
}

func (p countingPath) Transfer(bytes float64, done sim.Callback, arg any) {
	*p.n++
	if done != nil {
		p.k.AfterCall(20*sim.Microsecond, done, arg)
	}
}

// TestQueueDrainsToPromotedPrimary: after a DB failover the write-behind
// broker replays its backlog to the promoted primary over the path that
// reaches that server, and sends nothing more over the crashed one's.
func TestQueueDrainsToPromotedPrimary(t *testing.T) {
	k := sim.NewKernel()
	src := rng.NewSource(9)
	app, err := rubis.NewApp(smallDataset(), src.Stream("data"))
	if err != nil {
		t.Fatal(err)
	}
	srv := hw.NewServer(k, hw.ProLiantSpec("stub"))
	be := &nullBackend{k: k, os: osmodel.New(10), mem: srv.Mem}
	primary := NewDBServer(k, be, app, DefaultDBParams("vm"))
	replica := NewDBServer(k, be, app, DefaultDBParams("vm"))
	dbc := NewDBCluster(primary, []*DBServer{replica}, sim.Second)
	stub := PathPair{To: stubPath{k}, From: stubPath{k}}
	web := NewWebAppServer(k, be, dbc, []PathPair{stub, stub}, DefaultWebParams("vm"))
	var sent [2]int // drain queries sent toward the server of each id
	qs := NewQueueServer(k, be, dbc, []PathPair{
		{To: countingPath{k, &sent[0]}, From: stubPath{k}},
		{To: countingPath{k, &sent[1]}, From: stubPath{k}},
	}, cachetier.QueueSpec{MaxDepth: 4096, BatchSize: 64, DrainEveryMillis: 1000}, DefaultQueueParams())
	web.SetQueueTier(qs, stub)
	fe := NewWebCluster(k, []*WebAppServer{web}, 1, NewLoadBalancer(LBRoundRobin))
	hm := NewHealthMonitor(k, fe, dbc, faults.ResilienceSpec{HealthEverySeconds: 1, FailoverDetectSeconds: 3})
	hm.Start()
	NewDriver(k, app, rubis.BiddingMix(), fe, rubis.DefaultCostParams(), 50, src).Start()

	k.Run(30 * sim.Second)
	if sent[0] == 0 || sent[1] != 0 {
		t.Fatalf("before the crash drains went %v (by server id), want all to the primary", sent)
	}
	primary.crash()
	k.Run(40 * sim.Second)
	if len(hm.Failovers) != 1 || dbc.Primary != replica {
		t.Fatalf("got %d failovers, want the replica promoted", len(hm.Failovers))
	}
	before, drained := sent, qs.Snapshot().Drained
	k.Run(100 * sim.Second)
	if sent[0] != before[0] {
		t.Fatalf("%d drain queries went over the crashed server's path after failover", sent[0]-before[0])
	}
	if sent[1] == before[1] || qs.Snapshot().Drained == drained {
		t.Fatal("the backlog never drained to the promoted primary")
	}
}

// newGuardedStubRig is newStubClusterRig with the guard wrapped around
// the cluster: the driver's dispatches flow through timeouts, retries,
// and the optional breaker. clients > 0 swaps the open-loop arrivals
// for that many closed-loop clients.
func newGuardedStubRig(tb testing.TB, n, clients int, spec faults.ResilienceSpec) (*sim.Kernel, *Driver, *WebCluster, *Guard) {
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
	fe := NewWebCluster(k, webs, n, NewLoadBalancer(LBRoundRobin))
	g := NewGuard(k, fe, spec, src.Stream("resilience-jitter"))
	if clients > 0 {
		return k, NewDriver(k, app, staticModel{}, g, rubis.DefaultCostParams(), clients, src), fe, g
	}
	ld := load.Spec{Kind: load.Poisson, Rate: 40, SessionMean: 8}
	drv, err := NewOpenDriver(k, app, staticModel{}, g, rubis.DefaultCostParams(), &ld, src)
	if err != nil {
		tb.Fatal(err)
	}
	return k, drv, fe, g
}

// TestRetryStormAmplification is the retry-storm regression: against a
// permanently crashed single replica (no health monitor, so nothing
// ejects it), unbudgeted aggressive retries amplify cluster load by at
// least 2x per client request; the breaker caps the same posture well
// below that.
func TestRetryStormAmplification(t *testing.T) {
	amplification := func(brk *faults.BreakerSpec) float64 {
		spec := faults.ResilienceSpec{TimeoutMillis: 400, Retries: 4, BackoffMillis: 20, RetryBudget: 4, Breaker: brk}
		k, drv, fe, g := newGuardedStubRig(t, 1, 0, spec)
		drv.Start()
		k.Run(60 * sim.Second)
		// Client demand is guard entries plus breaker sheds (sheds never
		// reach the cluster but are offered requests all the same).
		d0, i0 := fe.Replicas[0].Dispatched, g.issued+g.Stats.Sheds
		fe.Replicas[0].crash()
		k.Run(120 * sim.Second)
		di, ii := fe.Replicas[0].Dispatched-d0, g.issued+g.Stats.Sheds-i0
		if ii == 0 {
			t.Fatal("no requests issued during the fault window")
		}
		return float64(di) / float64(ii)
	}
	storm := amplification(nil)
	if storm < 2 {
		t.Fatalf("unbraked retry storm amplified cluster load %.2fx, want >= 2x", storm)
	}
	braked := amplification(&faults.BreakerSpec{ErrorThreshold: 0.5, WindowRequests: 32, OpenMillis: 500})
	if braked >= 2 {
		t.Fatalf("breaker left amplification at %.2fx, want < 2x", braked)
	}
	if braked >= storm {
		t.Fatalf("breaker did not reduce amplification: %.2fx vs %.2fx", braked, storm)
	}
}

// TestRequestAccountingInvariant pins the outcome split: every issued
// request ends in exactly one of served / timed-out / shed / failed,
// with in-flight making up the difference at the horizon.
func TestRequestAccountingInvariant(t *testing.T) {
	spec := faults.ResilienceSpec{TimeoutMillis: 400, Retries: 1, BackoffMillis: 20, RetryBudget: 1}
	k, drv, fe, _ := newGuardedStubRig(t, 2, 0, spec)
	drv.Start()
	k.Run(30 * sim.Second)
	fe.Replicas[0].crash()
	k.Run(60 * sim.Second)
	fe.Replicas[0].restore()
	k.Run(90 * sim.Second)
	sum := drv.Completed + drv.TimedOut + drv.Shed + drv.Failed + drv.Degraded
	if sum > drv.Issued {
		t.Fatalf("outcomes (%d) exceed issued (%d)", sum, drv.Issued)
	}
	if drv.Completed == 0 || drv.Failed == 0 {
		t.Fatalf("vacuous run: served=%d failed=%d", drv.Completed, drv.Failed)
	}
	if inflight := drv.Issued - sum; inflight > 32 {
		t.Fatalf("%d requests unaccounted at the horizon, want a handful in flight at most", inflight)
	}
}

// TestOutcomeConservation pins the identity experiment.Run relies on
// when it derives RequestStats.InFlight as a remainder: in either loop,
// through a guarded cluster that loses a replica mid-run, Issued minus
// every outcome equals the driver's live in-flight counter at each
// phase boundary, and no session has more than one request in flight.
func TestOutcomeConservation(t *testing.T) {
	for _, loop := range []struct {
		name    string
		clients int
	}{{"open", 0}, {"closed", 40}} {
		t.Run(loop.name, func(t *testing.T) {
			spec := faults.ResilienceSpec{TimeoutMillis: 400, Retries: 1, BackoffMillis: 20, RetryBudget: 1}
			k, drv, fe, _ := newGuardedStubRig(t, 2, loop.clients, spec)
			check := func(phase string) {
				live := drv.Issued - drv.Completed - drv.TimedOut - drv.Shed - drv.Failed - drv.Degraded
				if live != uint64(drv.inflight) {
					t.Fatalf("%s: issued-minus-outcomes %d != live in-flight %d (issued %d served %d timed out %d shed %d failed %d degraded %d)",
						phase, int64(live), drv.inflight, drv.Issued, drv.Completed, drv.TimedOut, drv.Shed, drv.Failed, drv.Degraded)
				}
				if limit := drv.active + loop.clients; drv.inflight > limit {
					t.Fatalf("%s: %d requests in flight over %d sessions", phase, drv.inflight, limit)
				}
			}
			drv.Start()
			k.Run(30 * sim.Second)
			check("healthy")
			fe.Replicas[0].crash()
			k.Run(60 * sim.Second)
			check("replica down")
			fe.Replicas[0].restore()
			k.Run(90 * sim.Second)
			check("restored")
			if drv.Completed == 0 || drv.Failed+drv.TimedOut == 0 {
				t.Fatalf("vacuous run: served %d, failed %d, timed out %d", drv.Completed, drv.Failed, drv.TimedOut)
			}
		})
	}
}

// TestGuardDispatchZeroAlloc pins the satellite bar: the guarded
// dispatch path — timeout timer armed and cancelled per request,
// breaker fed, free lists cycled — allocates nothing per event when no
// fault is active.
func TestGuardDispatchZeroAlloc(t *testing.T) {
	spec := faults.ResilienceSpec{
		TimeoutMillis: 1000, Retries: 2, BackoffMillis: 50, RetryBudget: 0.25,
		Breaker: &faults.BreakerSpec{ErrorThreshold: 0.5, WindowRequests: 64, OpenMillis: 1000},
	}
	k, drv, _, g := newGuardedStubRig(t, 4, 0, spec)
	drv.Start()
	k.Run(300 * sim.Second)
	if drv.Completed == 0 {
		t.Fatal("guarded stub cluster served nothing; the gate would be vacuous")
	}
	if g.Stats.Timeouts != 0 {
		t.Fatalf("healthy rig recorded %d timeouts; the no-fault premise is broken", g.Stats.Timeouts)
	}
	allocs := testing.AllocsPerRun(5000, func() {
		if !k.Step() {
			t.Fatal("event queue drained")
		}
	})
	if allocs != 0 {
		t.Fatalf("guarded steady-state dispatch allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkDispatchWithFaults is the CI allocation gate for the
// guarded path (scripts/bench.sh asserts 0 allocs/op): steady-state
// event throughput with the full resilience stack armed and no active
// fault.
func BenchmarkDispatchWithFaults(b *testing.B) {
	spec := faults.ResilienceSpec{
		TimeoutMillis: 1000, Retries: 2, BackoffMillis: 50, RetryBudget: 0.25,
		Breaker: &faults.BreakerSpec{ErrorThreshold: 0.5, WindowRequests: 64, OpenMillis: 1000},
	}
	k, drv, _, _ := newGuardedStubRig(b, 4, 0, spec)
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

// delayBackend is nullBackend with a configurable CPU stage delay, so
// one replica can be made slow enough to outlive a guard timeout.
type delayBackend struct {
	nullBackend
	cpu sim.Time
}

func (b *delayBackend) SubmitCPU(cycles float64, done sim.Callback, arg any) {
	if done != nil {
		b.k.AfterCall(b.cpu, done, arg)
	}
}

// pinnedFE hands every request to webs[to], so a test decides which
// replica serves which session.
type pinnedFE struct {
	webs []*WebAppServer
	to   int
}

func (f *pinnedFE) Dispatch(res *rubis.Result, rt *Route, done sim.Callback, arg any) {
	f.webs[f.to].HandleRequest(res, rt, done, arg)
}

// TestRecycledSessionIgnoresStraggler pins that an open-loop session's
// route generation survives recycling. Session A's try waits in the
// queue of a one-worker replica until the guard times it out, so A
// ends and its slot is parked while the try lives on. The next
// arrival, B, reuses the slot and is served by a second replica. The
// first replica then crashes and fails A's straggler while B's request
// is in flight. Had the slot restarted its generation, the straggler
// would match B's route and stamp its failure on B's served response.
func TestRecycledSessionIgnoresStraggler(t *testing.T) {
	k := sim.NewKernel()
	src := rng.NewSource(77)
	app, err := rubis.NewApp(smallDataset(), src.Stream("data"))
	if err != nil {
		t.Fatal(err)
	}
	srv := hw.NewServer(k, hw.ProLiantSpec("stub"))
	be := func(cpu sim.Time) *delayBackend {
		return &delayBackend{nullBackend{k: k, os: osmodel.New(10), mem: srv.Mem}, cpu}
	}
	dbc := NewDBCluster(NewDBServer(k, be(10*sim.Microsecond), app, DefaultDBParams("vm")), nil, 0)
	paths := []PathPair{{To: stubPath{k}, From: stubPath{k}}}
	slowParams := DefaultWebParams("vm")
	slowParams.Workers = 1
	fe := &pinnedFE{webs: []*WebAppServer{
		NewWebAppServer(k, be(10*sim.Millisecond), dbc, paths, slowParams),
		NewWebAppServer(k, be(sim.Millisecond), dbc, paths, DefaultWebParams("vm")),
	}}
	g := NewGuard(k, fe, faults.ResilienceSpec{TimeoutMillis: 5, RetryBudget: 1}, src.Stream("resilience-jitter"))
	ld := load.Spec{Kind: load.Poisson, Rate: 1, SessionMean: 8}
	drv, err := NewOpenDriver(k, app, staticModel{}, g, rubis.DefaultCostParams(), &ld, src)
	if err != nil {
		t.Fatal(err)
	}

	// A blocker holds the slow replica's only worker, so A's try queues.
	var blocker rubis.Result
	fe.webs[0].HandleRequest(&blocker, nil, nil, nil)
	drv.startSession() // A: times out at 5 ms and abandons
	k.AfterCall(6*sim.Millisecond, func(any) {
		if drv.sessFree.Len() != 1 {
			t.Fatalf("%d sessions parked when B arrives, want A's", drv.sessFree.Len())
		}
		fe.to = 1
		drv.startSession() // B: served by the fast replica by ~8 ms
	}, nil)
	k.AfterCall(6500*sim.Microsecond, func(any) { fe.webs[0].crash() }, nil)
	k.Run(9 * sim.Millisecond)

	if drv.Sessions.Started != 2 || drv.TimedOut != 1 {
		t.Fatalf("started %d sessions with %d timeouts, want A timed out and B started", drv.Sessions.Started, drv.TimedOut)
	}
	if drv.Completed != 1 || drv.Failed != 0 {
		t.Fatalf("B's served response counted as %d completed, %d failed; want 1 completed: A's straggler stamped B's route",
			drv.Completed, drv.Failed)
	}
}
