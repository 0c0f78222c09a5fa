package tiers

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"vwchar/internal/hw"
	"vwchar/internal/load"
	"vwchar/internal/osmodel"
	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/telemetry"
)

func TestClientSeedsMatchStreamNames(t *testing.T) {
	src := rng.NewSource(42)
	for i := 0; i <= 5000; i++ {
		think, pick := clientSeeds(src, i)
		if want := src.SeedFor(fmt.Sprintf("client-%d-think", i)); think != want {
			t.Fatalf("client %d think seed %d, want %d", i, think, want)
		}
		if want := src.SeedFor(fmt.Sprintf("client-%d-pick", i)); pick != want {
			t.Fatalf("client %d pick seed %d, want %d", i, pick, want)
		}
	}
}

func TestDriverReleaseRecyclesStreams(t *testing.T) {
	const n = 300
	rig := newVMRig(t, n)
	d := rig.driver
	released := make(map[*rng.Stream]bool, 2*n)
	for _, c := range d.streams {
		released[c.think] = true
		released[c.pick] = true
	}
	d.Release()
	for i, c := range d.streams {
		if c.think != nil || c.pick != nil {
			t.Fatalf("client %d still holds its streams after Release", i)
		}
	}

	src := rng.NewSource(21)
	build := func(n int) *Driver {
		return NewDriver(rig.k, rig.app, rubis.BrowsingMix(), d.web, rubis.DefaultCostParams(), n, src)
	}
	again := build(n)
	for i, c := range again.streams {
		if !released[c.think] || !released[c.pick] {
			t.Fatalf("client %d got a new stream while released ones were free", i)
		}
	}
	again.Release()

	// With the streams recycled, the clients cost only the driver's
	// session and stream slices and their shared query buffer: any
	// stream allocation would add two more per client, and a query
	// buffer per client one more.
	base := testing.AllocsPerRun(5, func() { build(0).Release() })
	full := testing.AllocsPerRun(5, func() { build(n).Release() })
	if extra := full - base; extra > 3 {
		t.Fatalf("NewDriver(%d) after Release: %v allocs beyond an empty driver, want <= 3 (the two client slices and the query buffer)", n, extra)
	}

	// The open loop owns three streams, its shared behave pair being
	// one stream, and hands each back exactly once.
	spec := load.Spec{Kind: load.Poisson, Rate: 2}
	_, open := newOpenVMRig(t, spec, 21)
	owned := map[*rng.Stream]bool{open.arrive: true, open.life: true, open.streams[0].think: true}
	open.Release()
	reopened, err := NewOpenDriver(open.k, open.app, rubis.BrowsingMix(), open.web, rubis.DefaultCostParams(), &spec, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*rng.Stream{reopened.arrive, reopened.life, reopened.streams[0].pick} {
		if !owned[s] {
			t.Fatal("open-loop driver got a new stream while released ones were free")
		}
	}
	reopened.Release()
}

func TestReleasedDriverPanicsOnDraw(t *testing.T) {
	_, open := newOpenVMRig(t, load.Spec{Kind: load.Poisson, Rate: 2}, 21)
	for _, tc := range []struct {
		loop string
		d    *Driver
	}{{"closed", newVMRig(t, 5).driver}, {"open", open}} {
		tc.d.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("starting a released %s-loop driver did not panic", tc.loop)
				}
			}()
			tc.d.Start()
		}()
	}
}

// browsingModel walks the read-only browsing mix with staticModel's
// short think time: most of its pages carry DB queries, so every
// session fills its query buffer, yet no page writes.
type browsingModel struct{ rubis.Model }

func (browsingModel) ThinkSeconds(r *rng.Stream) float64 { return r.Exp(0.5) }

// newStubDriverRig is the driver's allocation test bed: browsing pages
// over a null web tier, so the only work per event is the driver's own
// scheduling and the app's read queries. closed selects 100
// closed-loop clients; otherwise a bursty open-loop crowd arrives with
// a ramp.
func newStubDriverRig(tb testing.TB, closed bool) (*sim.Kernel, *Driver) {
	tb.Helper()
	k := sim.NewKernel()
	src := rng.NewSource(77)
	app, err := rubis.NewApp(smallDataset(), src.Stream("data"))
	if err != nil {
		tb.Fatal(err)
	}
	srv := hw.NewServer(k, hw.ProLiantSpec("stub"))
	be := &nullBackend{k: k, os: osmodel.New(10), mem: srv.Mem}
	fe := &nullFrontend{k: k, be: be}
	model := browsingModel{rubis.BrowsingMix()}
	if closed {
		return k, NewDriver(k, app, model, fe, rubis.DefaultCostParams(), 100, src)
	}
	spec := load.Spec{Kind: load.Bursty, Rate: 20, BurstFactor: 4,
		BaseDwell: 30, BurstDwell: 10, SessionMean: 8, RampSeconds: 5}
	drv, err := NewOpenDriver(k, app, model, fe, rubis.DefaultCostParams(), &spec, src)
	if err != nil {
		tb.Fatal(err)
	}
	return k, drv
}

// warmStubDriver starts the rig and runs it to steady state: the
// session free list and event pool have seen the peak concurrency, the
// tables' read buffers have grown, and more requests completed than
// the recorder's exact reservoir holds, so it has stopped filling.
// Deterministic, so no flakiness.
func warmStubDriver(tb testing.TB, closed bool) *sim.Kernel {
	tb.Helper()
	k, drv := newStubDriverRig(tb, closed)
	drv.Start()
	k.Run(300 * sim.Second)
	if drv.Completed <= telemetry.DefaultExactCap || (!closed && drv.Sessions.Finished == 0) || drv.byKind[rubis.ViewItem] == 0 {
		tb.Fatalf("stub rig served %d requests (%d ViewItem), %d sessions finished; the guard would be vacuous",
			drv.Completed, drv.byKind[rubis.ViewItem], drv.Sessions.Finished)
	}
	return k
}

var driverLoops = []struct {
	name   string
	closed bool
}{{"open", false}, {"closed", true}}

// TestDriverSchedulingZeroAlloc pins the acceptance bar for both loops:
// with the web tier stubbed out (read-only pages, null web tier), the
// whole request loop — think scheduling, issue with its DB queries,
// response handling, and in the open loop arrival re-arm and session
// admission and recycling with the sessions' query buffers — runs
// steady state without allocating. The real stack adds server work on
// top; the driver itself never allocates. The
// guard counts allocations over a whole batch of events, not per
// event: AllocsPerRun truncates its average, so one allocation every
// other event would read as zero.
func TestDriverSchedulingZeroAlloc(t *testing.T) {
	const events = 5000
	for _, loop := range driverLoops {
		t.Run(loop.name, func(t *testing.T) {
			k := warmStubDriver(t, loop.closed)
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < events; i++ {
					if !k.Step() {
						t.Fatal("event queue drained")
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("%s-loop steady-state scheduling allocated %v times over %d events, want 0", loop.name, allocs, events)
			}
		})
	}
}

// BenchmarkDriverSteadyState is the CI allocation gate for the driver
// (the workflow asserts 0 allocs/op on both rows): kernel steps on the
// stub rig after warm-up, one sub-benchmark per loop.
func BenchmarkDriverSteadyState(b *testing.B) {
	for _, loop := range driverLoops {
		b.Run(loop.name, func(b *testing.B) {
			k := warmStubDriver(b, loop.closed)
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

// newStatsDriver is a driver with only its accounting wired, for tests
// that feed observations by hand.
func newStatsDriver() *Driver {
	return newDriver(nil, nil, nil, nil, rubis.CostParams{})
}

// oldReservoirQuantile replicates the computation the driver performed
// before the telemetry refactor: copy the reservoir, sort, index
// floor(q*(n-1)) with no interpolation.
func oldReservoirQuantile(respTimes []float64, q float64) float64 {
	if len(respTimes) == 0 {
		return 0
	}
	sorted := append([]float64(nil), respTimes...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// TestDriverStatsQuantileMatchesOldExact pins the golden-bytes
// contract behind the reservoir replacement: below the exact-spill cap
// (which covers every sweep the golden hash pins), ResponseTimeQuantile
// and MeanResponseTime are bit-identical to the old copy-sort-index
// reservoir computation.
func TestDriverStatsQuantileMatchesOldExact(t *testing.T) {
	s := newStatsDriver()
	r := rng.NewSource(17).Stream("rt")
	var old []float64
	sum := 0.0
	for i := 0; i < 4096; i++ {
		rt := r.LogNormal(math.Log(0.015), 1.1)
		s.observeSent()
		s.conclude(OutcomeServed, rt, false, -1)
		old = append(old, rt)
		sum += rt
	}
	for _, q := range []float64{0, 0.05, 0.5, 0.95, 0.99, 1} {
		if got, want := s.ResponseTimeQuantile(q), oldReservoirQuantile(old, q); got != want {
			t.Fatalf("q%.2f: %v != old exact %v", q, got, want)
		}
	}
	if got, want := s.MeanResponseTime(), sum/float64(len(old)); got != want {
		t.Fatalf("mean %v != old exact %v", got, want)
	}
}

// TestDriverStatsQuantileBeyondCap pins the over-cap behaviour: the
// run-level quantile comes from the merged histogram, within the
// histogram's stated relative-error bound of the exact quantile over
// ALL observations (the old reservoir silently ignored everything
// after its 200k-sample cap).
func TestDriverStatsQuantileBeyondCap(t *testing.T) {
	s := newStatsDriver()
	r := rng.NewSource(23).Stream("rt")
	n := telemetry.DefaultExactCap + 10000
	all := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		rt := r.LogNormal(math.Log(0.02), 0.9)
		s.observeSent()
		s.conclude(OutcomeServed, rt, false, -1)
		all = append(all, rt)
	}
	// Half of one of telemetry.Hist's bins, 128 to a decade.
	bound := math.Pow(10, 1.0/256) - 1
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got, want := s.ResponseTimeQuantile(q), oldReservoirQuantile(all, q)
		if relErr := math.Abs(got/want - 1); relErr > bound {
			t.Fatalf("q%.2f: %v vs exact %v (rel err %v > %v)",
				q, got, want, relErr, bound)
		}
	}
	// The run histogram kept recording past the exact cap (the
	// telemetry tests pin that the reservoir itself stays capped).
	if got := s.rec.RunHist().Count(); got != uint64(n) {
		t.Fatalf("run histogram saw %d of %d observations", got, n)
	}
}

// TestDriverStatsWindowChurnSeries pins the windowed pipeline at the
// driver's accounting layer: observations and churn land in the window
// that was open when they happened, and the inflight gauge tracks
// sent-minus-completed at each boundary.
func TestDriverStatsWindowChurnSeries(t *testing.T) {
	s := newStatsDriver()

	s.rec.NoteStart()
	s.observeSent()
	s.observeSent()
	s.conclude(OutcomeServed, 0.010, false, -1) // one of the two completes in window 1
	s.RotateWindow(0)

	s.conclude(OutcomeServed, 0.500, false, -1) // the straggler completes in window 2
	s.rec.NoteEnd()
	s.RotateWindow(0)

	w := s.Recorder().Series()
	if w.Windows() != 2 {
		t.Fatalf("windows = %d", w.Windows())
	}
	if w.ByName(telemetry.Inflight).At(0) != 1 || w.ByName(telemetry.Inflight).At(1) != 0 {
		t.Fatalf("inflight gauge %v", w.ByName(telemetry.Inflight).Values)
	}
	if w.ByName(telemetry.SessionStarts).At(0) != 1 || w.ByName(telemetry.SessionEnds).At(0) != 0 || w.ByName(telemetry.SessionEnds).At(1) != 1 {
		t.Fatalf("churn starts=%v ends=%v", w.ByName(telemetry.SessionStarts).Values, w.ByName(telemetry.SessionEnds).Values)
	}
	if got := w.ByName(telemetry.LatencyMean).At(1); math.Abs(got-500) > 1e-9 {
		t.Fatalf("window 2 mean %v ms, want 500", got)
	}
	if s.Completed != 2 {
		t.Fatalf("completed = %d", s.Completed)
	}
}
