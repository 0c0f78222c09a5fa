package telemetry

import (
	"math"
	"testing"

	"vwchar/internal/rng"
)

// TestRecorderWindowSeries pins the windowed pipeline end to end: two
// windows with known observations produce the expected per-window
// mean/quantile/throughput/churn samples on a shared 2 s axis.
func TestRecorderWindowSeries(t *testing.T) {
	rec := NewRecorder(2)

	// Window 1: four fast responses, one session starting and ending.
	rec.NoteStart()
	for _, rt := range []float64{0.010, 0.010, 0.010, 0.030} {
		rec.RecordKind(rt, false, -1)
	}
	rec.NoteEnd()
	rec.Rotate(3)

	// Window 2: two slow responses.
	rec.RecordKind(1.0, false, -1)
	rec.RecordKind(2.0, false, -1)
	rec.Rotate(1)

	s := rec.Series()
	if s.Windows() != 2 {
		t.Fatalf("windows = %d, want 2", s.Windows())
	}
	if got, want := s.ByName(LatencyMean).At(0), 15.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("window 1 mean = %v ms, want %v", got, want)
	}
	// Rank convention floor(q*(n-1)): the p95 of four samples is the
	// third smallest, and only q=1 reaches the 30 ms outlier.
	if got := s.ByName(LatencyP95).At(0); math.Abs(got/10-1) > relativeErrorBound {
		t.Errorf("window 1 p95 = %v ms, want ~10", got)
	}
	if got, want := s.ByName(Throughput).At(0), 2.0; got != want { // 4 completions / 2 s
		t.Errorf("window 1 throughput = %v, want %v", got, want)
	}
	if s.ByName(Inflight).At(0) != 3 || s.ByName(Inflight).At(1) != 1 {
		t.Errorf("inflight gauge = %v, %v", s.ByName(Inflight).At(0), s.ByName(Inflight).At(1))
	}
	if s.ByName(SessionStarts).At(0) != 1 || s.ByName(SessionEnds).At(0) != 1 || s.ByName(SessionStarts).At(1) != 0 {
		t.Errorf("churn series wrong: starts %v ends %v", s.ByName(SessionStarts).Values, s.ByName(SessionEnds).Values)
	}
	if got := s.ByName(LatencyMean).At(1); math.Abs(got-1500) > 1e-9 {
		t.Errorf("window 2 mean = %v ms, want 1500", got)
	}
	// The second window's stats are independent of the first: rotation
	// reset the window histogram.
	if got := s.ByName(LatencyP50).At(1); math.Abs(got/1000-1) > relativeErrorBound {
		t.Errorf("window 2 p50 = %v ms, want ~1000", got)
	}
	// Run-level accounting spans both windows.
	if rec.RunHist().Count() != 6 {
		t.Errorf("run count = %d, want 6", rec.RunHist().Count())
	}
	if got, want := rec.Mean(), (0.010*3+0.030+1+2)/6; math.Abs(got-want) > 1e-12 {
		t.Errorf("run mean = %v, want %v", got, want)
	}
	// A bare recorder carries exactly the core series, in contract
	// order, each reachable by name.
	core := []string{LatencyMean, LatencyP50, LatencyP95, LatencyP99, Throughput, Inflight,
		SessionStarts, SessionEnds, LatencyReadP95, LatencyRWP95, Abandoned}
	if len(s.All()) != len(core) {
		t.Fatalf("bare recorder has %d series, want the %d core ones", len(s.All()), len(core))
	}
	for i, name := range core {
		sr := s.All()[i]
		if sr.Name != name {
			t.Errorf("series %d named %q, want %q", i, sr.Name, name)
		}
		if s.ByName(name) != sr {
			t.Errorf("ByName(%q) mismatch", name)
		}
	}
	if s.ByName("nope") != nil {
		t.Error("ByName of unknown name should be nil")
	}
}

// TestRecorderExactQuantileEquivalence pins the golden-bytes contract:
// while observations fit the exact reservoir, Quantile is bit-identical
// to the historical sort-and-index computation over every observation.
func TestRecorderExactQuantileEquivalence(t *testing.T) {
	r := rng.NewSource(3).Stream("exact")
	rec := NewRecorder(2)
	var xs []float64
	for i := 0; i < 5000; i++ {
		v := r.LogNormal(math.Log(0.02), 1.0)
		rec.RecordKind(v, false, -1)
		xs = append(xs, v)
		if i%97 == 0 {
			rec.Rotate(0)
		}
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.95, 0.99, 1} {
		if got, want := rec.Quantile(q), oracleQuantile(xs, q); got != want {
			t.Fatalf("q%.2f: recorder %v != exact %v", q, got, want)
		}
	}
	// Interleaving reads and writes keeps the reservoir coherent: a
	// record after a sort dirties it again.
	rec.RecordKind(1e9, false, -1)
	if got, want := rec.Quantile(1), 1e9; got != want {
		t.Fatalf("post-sort record lost: q1 = %v, want %v", got, want)
	}
}

// TestRecorderHistogramFallback pins the over-cap behaviour: past
// DefaultExactCap observations the reservoir stops growing (memory
// stays bounded) and quantiles fall back to the merged run histogram,
// within the stated error bound of the exact answer over ALL
// observations — unlike the replaced reservoir, which silently dropped
// everything after its first 200k samples.
func TestRecorderHistogramFallback(t *testing.T) {
	r := rng.NewSource(5).Stream("fallback")
	rec := NewRecorder(2)
	n := DefaultExactCap + 20000
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := r.LogNormal(math.Log(0.05), 0.8)
		rec.RecordKind(v, false, -1)
		xs = append(xs, v)
	}
	if len(rec.exact) != DefaultExactCap {
		t.Fatalf("reservoir grew to %d, cap %d", len(rec.exact), DefaultExactCap)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got, want := rec.Quantile(q), oracleQuantile(xs, q)
		if relErr := math.Abs(got/want - 1); relErr > relativeErrorBound {
			t.Fatalf("q%.2f: hist fallback %v vs exact %v (rel err %v)", q, got, want, relErr)
		}
	}
}

// TestRecorderMemoryBounded is the memory regression test for the
// reservoir replacement: a recorder that has absorbed a million
// observations retains a fixed-size footprint — the two histograms
// plus at most DefaultExactCap reservoir slots — instead of the run-
// length-proportional (or 200k-float) slice it replaced.
func TestRecorderMemoryBounded(t *testing.T) {
	rec := NewRecorder(2)
	r := rng.NewSource(9).Stream("mem")
	for i := 0; i < 1_000_000; i++ {
		rec.RecordKind(r.Exp(0.01), false, -1)
	}
	if got := len(rec.exact); got > DefaultExactCap {
		t.Fatalf("exact reservoir holds %d > cap %d", got, DefaultExactCap)
	}
	// The retained footprint: reservoir + 2 fixed histograms. Pin it
	// well under the old reservoir's 200000 float64s (1.6 MB).
	histBytes := int(2 * (numBins + 2) * 8)
	if total := len(rec.exact)*8 + histBytes; total >= 200000*8/2 {
		t.Fatalf("recorder retains ~%d bytes, want < half the old reservoir", total)
	}
	if rec.RunHist().Count() != 1_000_000 {
		t.Fatalf("count = %d", rec.RunHist().Count())
	}
}

// TestRecorderSteadyStateZeroAlloc pins that recording and churn notes
// never allocate.
func TestRecorderSteadyStateZeroAlloc(t *testing.T) {
	rec := NewRecorder(2)
	v := 0.001
	allocs := testing.AllocsPerRun(10000, func() {
		rec.NoteStart()
		rec.RecordKind(v, false, -1)
		rec.NoteEnd()
		v *= 1.0002
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %v allocs/op, want 0", allocs)
	}
}

// TestRecorderRotateZeroAllocWithinHint pins that rotation within a
// horizon reserved before the first window never allocates: the
// per-window series grow into preallocated capacity.
func TestRecorderRotateZeroAllocWithinHint(t *testing.T) {
	const hint = 20100
	rec := NewRecorder(2)
	rec.ReserveWindows(hint)
	allocs := testing.AllocsPerRun(20000, func() {
		rec.RecordKind(0.01, false, -1)
		rec.RecordKind(0.05, false, -1)
		rec.Rotate(1)
	})
	if allocs != 0 {
		t.Fatalf("rotation allocates %v allocs/op within hint, want 0", allocs)
	}
	if rec.Series().Windows() > hint {
		t.Fatalf("guard vacuous: %d windows exceeded the hint", rec.Series().Windows())
	}
}

// TestRecorderReserveWindows pins the path real runs take: a recorder
// built by a driver, which does not know the duration, gets its horizon
// reserved by experiment.Run, after which rotation
// never allocates and already-emitted windows are preserved.
func TestRecorderReserveWindows(t *testing.T) {
	rec := NewRecorder(2)
	rec.RecordKind(0.25, false, -1)
	rec.Rotate(2) // one window emitted before the reservation
	rec.ReserveWindows(4200)
	if got := rec.Series().ByName(LatencyMean).At(0); math.Abs(got-250) > 1e-9 {
		t.Fatalf("reservation lost emitted window: %v", got)
	}
	allocs := testing.AllocsPerRun(4000, func() {
		rec.RecordKind(0.01, false, -1)
		rec.Rotate(1)
	})
	if allocs != 0 {
		t.Fatalf("post-reserve rotation allocates %v allocs/op, want 0", allocs)
	}
}

// TestRecorderEmptyWindows pins that idle windows emit zero samples
// (not stale data) and keep the axis aligned.
func TestRecorderEmptyWindows(t *testing.T) {
	rec := NewRecorder(2)
	rec.RecordKind(0.5, false, -1)
	rec.Rotate(0)
	rec.Rotate(0) // empty window
	s := rec.Series()
	if s.Windows() != 2 {
		t.Fatalf("windows = %d", s.Windows())
	}
	if s.ByName(LatencyP95).At(1) != 0 || s.ByName(Throughput).At(1) != 0 {
		t.Fatalf("idle window leaked data: p95=%v tput=%v", s.ByName(LatencyP95).At(1), s.ByName(Throughput).At(1))
	}
	if got := s.ByName(LatencyP95).TimeAt(1); got != 2 {
		t.Fatalf("window 2 time = %v, want 2", got)
	}
}

// TestRecorderFaultSeries pins the fault series as experiment.Run
// registers them: Counters difference the driver's cumulative outcome
// tallies and the guard's retry count per window, and availability is
// served/(served+abnormal) with an idle-window default of 1.
func TestRecorderFaultSeries(t *testing.T) {
	rec := NewRecorder(2)
	var served, timedOut, shed, failed, retries uint64
	rec.Counter(Timeouts, "requests/window", func() uint64 { return timedOut })
	rec.Counter(Sheds, "requests/window", func() uint64 { return shed })
	rec.Counter(Failures, "requests/window", func() uint64 { return failed })
	rec.Counter(Retries, "retries/window", func() uint64 { return retries })
	rec.Gauge(Availability, "fraction", WindowShare(
		func() uint64 { return served },
		func() uint64 { return timedOut + shed + failed }, 1))

	// Window 1: two served, one timeout, one failure, three retries.
	served, timedOut, failed, retries = 2, 1, 1, 3
	rec.Rotate(0)

	// Window 2: all healthy, one more retry.
	served, retries = 3, 4
	rec.Rotate(0)

	// Window 3: idle.
	rec.Rotate(0)

	s := rec.Series()
	if s.ByName(Timeouts).At(0) != 1 || s.ByName(Failures).At(0) != 1 || s.ByName(Sheds).At(0) != 0 {
		t.Fatalf("window 1 outcomes = %v/%v/%v, want 1/1/0",
			s.ByName(Timeouts).At(0), s.ByName(Failures).At(0), s.ByName(Sheds).At(0))
	}
	if r := s.ByName(Retries); r.At(0) != 3 || r.At(1) != 1 || r.At(2) != 0 {
		t.Fatalf("retry series = %v, want [3 1 0]", r.Values)
	}
	avail := s.ByName(Availability)
	if got := avail.At(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("window 1 availability = %v, want 0.5", got)
	}
	if avail.At(1) != 1 || avail.At(2) != 1 {
		t.Fatalf("healthy/idle availability = %v/%v, want 1/1", avail.At(1), avail.At(2))
	}
	// Counters report the increase, not the running total.
	if s.ByName(Timeouts).At(1) != 0 || s.ByName(Failures).At(1) != 0 {
		t.Fatalf("window 2 outcomes should be zero")
	}
	// Registered series follow the core ones, in registration order.
	all := s.All()
	if got := all[len(all)-5:]; got[0].Name != Timeouts || got[4].Name != Availability {
		t.Fatalf("registered series out of order: %q ... %q", got[0].Name, got[4].Name)
	}
}

// TestRegistryMisusePanics pins the registration contract: a duplicate
// name (core or registered) and a registration after the first window
// closed are programmer errors.
func TestRegistryMisusePanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	zero := func() float64 { return 0 }
	rec := NewRecorder(2)
	mustPanic("duplicate core name", func() { rec.Gauge(LatencyP95, "ms", zero) })
	rec.Counter(Retries, "retries/window", func() uint64 { return 0 })
	mustPanic("duplicate registered name", func() { rec.Gauge(Retries, "retries/window", zero) })
	rec.Rotate(0)
	mustPanic("registration after Rotate", func() { rec.Gauge(QueueDepth, "writes", zero) })
	if n := len(rec.Series().All()); n != 12 {
		t.Fatalf("misuse changed the registry: %d series, want 12", n)
	}
}
