package tiers

import (
	"testing"

	"vwchar/internal/hw"
	"vwchar/internal/load"
	"vwchar/internal/osmodel"
	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/xen"
)

// newOpenVMRig assembles the VM deployment under the open-loop driver.
func newOpenVMRig(t *testing.T, spec load.Spec, seed uint64) (*vmRig, *Driver) {
	t.Helper()
	k := sim.NewKernel()
	src := rng.NewSource(seed)
	app, err := rubis.NewApp(smallDataset(), src.Stream("data"))
	if err != nil {
		t.Fatal(err)
	}
	host := hw.NewServer(k, hw.ProLiantSpec("host"))
	hv := xen.New(k, host, xen.DefaultParams())
	webDom := hv.CreateGuest("web", 2, 2<<30, 256)
	dbDom := hv.CreateGuest("db", 2, 2<<30, 256)
	webBE := &VMBackend{HV: hv, Dom: webDom}
	dbBE := &VMBackend{HV: hv, Dom: dbDom}
	db := NewDBServer(k, dbBE, app, DefaultDBParams("vm"))
	dbc := NewDBCluster(db, nil, 0)
	paths := []PathPair{{To: VMPath(hv, webDom, dbDom), From: VMPath(hv, dbDom, webDom)}}
	web := NewWebAppServer(k, webBE, dbc, paths, DefaultWebParams("vm"))
	fe := NewWebCluster(k, []*WebAppServer{web}, 1, nil)
	drv, err := NewOpenDriver(k, app, rubis.BrowsingMix(), fe, rubis.DefaultCostParams(), &spec, src)
	if err != nil {
		t.Fatal(err)
	}
	return &vmRig{k: k, hv: hv, app: app, web: web, db: db}, drv
}

// TestOpenLoopServesRequests drives the full VM stack with Poisson
// arrivals and checks the session accounting holds together.
func TestOpenLoopServesRequests(t *testing.T) {
	spec := load.Spec{Kind: load.Poisson, Rate: 2, SessionMean: 6}
	rig, drv := newOpenVMRig(t, spec, 21)
	drv.Start()
	rig.k.Run(120 * sim.Second)

	s := drv.Sessions
	if s.Offered == 0 || s.Started != s.Offered {
		t.Fatalf("with no ramp every arrival is admitted: %+v", s)
	}
	// ~240 expected; Poisson spread makes 150 a safe floor.
	if s.Started < 150 {
		t.Fatalf("only %d sessions started", s.Started)
	}
	if drv.Completed < 4*s.Started/2 {
		t.Fatalf("completed %d interactions over %d sessions; sessions are too short", drv.Completed, s.Started)
	}
	if drv.Errors != 0 {
		t.Fatalf("%d interaction errors", drv.Errors)
	}
	if rig.web.Served != drv.Completed {
		t.Fatalf("web served %d != driver completed %d", rig.web.Served, drv.Completed)
	}
	if s.Abandoned != 0 {
		t.Fatalf("no SLO configured, yet %d sessions abandoned", s.Abandoned)
	}
	ended := s.Finished + s.Abandoned
	if got := int(s.Started-ended) - drv.active; got != 0 {
		t.Fatalf("session ledger off by %d: %+v active=%d", got, s, drv.active)
	}
	if s.PeakActive <= 0 || s.PeakActive > int(s.Started) {
		t.Fatalf("peak %d out of range", s.PeakActive)
	}
	if drv.MeanResponseTime() <= 0 {
		t.Fatal("no response times recorded")
	}
}

// TestOpenLoopAbandonment pins that an unreachable SLO ends every
// multi-interaction session after its first response.
func TestOpenLoopAbandonment(t *testing.T) {
	spec := load.Spec{Kind: load.Poisson, Rate: 2, SessionMean: 8,
		AbandonAfterSeconds: 1e-9} // every real response violates it
	_, drv := newOpenVMRig(t, spec, 33)
	drv.Start()
	drv.k.Run(90 * sim.Second)

	s := drv.Sessions
	if s.Abandoned == 0 {
		t.Fatal("no sessions abandoned under an unreachable SLO")
	}
	// Sessions of drawn length 1 finish; everything else abandons on
	// the first response, so completed interactions track ended
	// sessions one-to-one.
	if got, want := drv.Completed, uint64(s.Finished+s.Abandoned); got != want {
		t.Fatalf("completed %d interactions, want %d (one per ended session)", got, want)
	}
	if s.Abandoned < 3*s.Finished {
		t.Fatalf("geometric mean 8 should abandon most sessions: %+v", s)
	}
}

// TestOpenLoopRampThins pins ramp-in: with the ramp spanning the whole
// run, a prefix of arrivals is thinned away.
func TestOpenLoopRampThins(t *testing.T) {
	spec := load.Spec{Kind: load.Poisson, Rate: 3, SessionMean: 3, RampSeconds: 120}
	_, drv := newOpenVMRig(t, spec, 44)
	drv.Start()
	drv.k.Run(120 * sim.Second)

	s := drv.Sessions
	if s.Started >= s.Offered {
		t.Fatalf("ramp thinned nothing: %+v", s)
	}
	// A linear 0->1 ramp admits about half the arrivals.
	frac := float64(s.Started) / float64(s.Offered)
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("ramp admitted %.0f%% of arrivals, want ~50%%", frac*100)
	}
}

// TestOpenLoopDeterministic pins that identical (spec, seed) pairs
// replay identically through the full stack.
func TestOpenLoopDeterministic(t *testing.T) {
	spec := load.Spec{Kind: load.Bursty, Rate: 1.5, BurstFactor: 5,
		BaseDwell: 30, BurstDwell: 10, SessionMean: 5}
	run := func() (SessionStats, uint64, float64) {
		_, drv := newOpenVMRig(t, spec, 55)
		drv.Start()
		drv.k.Run(90 * sim.Second)
		return drv.Sessions, drv.Completed, drv.MeanResponseTime()
	}
	s1, c1, m1 := run()
	s2, c2, m2 := run()
	if s1 != s2 || c1 != c2 || m1 != m2 {
		t.Fatalf("replay diverged: %+v/%d/%v vs %+v/%d/%v", s1, c1, m1, s2, c2, m2)
	}
}

// --- zero-alloc guard ---------------------------------------------------

// staticModel always serves the static Home page, keeping the app layer
// out of the storage engine so the guard isolates driver scheduling.
type staticModel struct{}

func (staticModel) MixName() string               { return "static" }
func (staticModel) StartState() rubis.Interaction { return rubis.Home }
func (staticModel) NextInteraction(cur rubis.Interaction, r *rng.Stream) rubis.Interaction {
	return rubis.Home
}
func (staticModel) ThinkSeconds(r *rng.Stream) float64 { return r.Exp(0.5) }

// nullBackend satisfies Backend with pure-delay completions.
type nullBackend struct {
	k   *sim.Kernel
	os  *osmodel.OS
	mem *hw.Memory
}

func (b *nullBackend) SubmitCPU(cycles float64, done sim.Callback, arg any) {
	if done != nil {
		b.k.AfterCall(10*sim.Microsecond, done, arg)
	}
}
func (b *nullBackend) DiskIO(bytes float64, write bool, done sim.Callback, arg any) {
	if done != nil {
		b.k.AfterCall(50*sim.Microsecond, done, arg)
	}
}
func (b *nullBackend) NetExternal(bytes float64, inbound bool, done sim.Callback, arg any) {
	if done != nil {
		b.k.AfterCall(20*sim.Microsecond, done, arg)
	}
}
func (b *nullBackend) Fsync(n int)     {}
func (b *nullBackend) OS() *osmodel.OS { return b.os }
func (b *nullBackend) Mem() *hw.Memory { return b.mem }

// nullFrontend responds to every request after a fixed service delay.
type nullFrontend struct {
	k  *sim.Kernel
	be Backend
}

func (f *nullFrontend) Dispatch(res *rubis.Result, rt *Route, done sim.Callback, arg any) {
	f.k.AfterCall(2*sim.Millisecond, done, arg)
}
