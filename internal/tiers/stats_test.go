package tiers

import (
	"math"
	"sort"
	"testing"

	"vwchar/internal/rng"
	"vwchar/internal/telemetry"
)

// oldReservoirQuantile replicates the computation driverStats performed
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
	var s driverStats
	s.initStats(false)
	r := rng.NewSource(17).Stream("rt")
	var old []float64
	sum := 0.0
	for i := 0; i < 4096; i++ {
		rt := r.LogNormal(math.Log(0.015), 1.1)
		s.observeSent()
		s.observe(rt, false, -1)
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
	var s driverStats
	s.initStats(true)
	r := rng.NewSource(23).Stream("rt")
	n := telemetry.DefaultExactCap + 10000
	all := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		rt := r.LogNormal(math.Log(0.02), 0.9)
		s.observeSent()
		s.observe(rt, false, -1)
		all = append(all, rt)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got, want := s.ResponseTimeQuantile(q), oldReservoirQuantile(all, q)
		if relErr := math.Abs(got/want - 1); relErr > telemetry.RelativeErrorBound {
			t.Fatalf("q%.2f: %v vs exact %v (rel err %v > %v)",
				q, got, want, relErr, telemetry.RelativeErrorBound)
		}
	}
	// Memory regression: the spill stayed capped while the run kept
	// recording (run count covers every observation).
	if got := s.rec.ExactLen(); got > telemetry.DefaultExactCap {
		t.Fatalf("exact spill grew to %d", got)
	}
	if got := s.rec.Count(); got != uint64(n) {
		t.Fatalf("run histogram saw %d of %d observations", got, n)
	}
}

// TestDriverStatsWindowChurnSeries pins the windowed pipeline at the
// driver-stats layer: observations and churn land in the window that
// was open when they happened, and the inflight gauge tracks
// sent-minus-completed at each boundary.
func TestDriverStatsWindowChurnSeries(t *testing.T) {
	var s driverStats
	s.initStats(false)

	s.rec.NoteStart()
	s.observeSent()
	s.observeSent()
	s.observe(0.010, false, -1) // one of the two completes in window 1
	s.RotateWindow(0)

	s.observe(0.500, false, -1) // the straggler completes in window 2
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
