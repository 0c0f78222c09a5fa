package telemetry

import (
	"math"
	"testing"
)

// TestHistCountAboveOracle checks tail counting against an exact
// oracle at the histogram's bin resolution: thresholds on bin
// boundaries split the recorded values exactly; the edges clamp.
func TestHistCountAboveOracle(t *testing.T) {
	var h Hist
	vals := []float64{0.01, 0.02, 0.1, 0.1, 0.4, 0.8, 1.5, 3.0}
	for _, v := range vals {
		h.Record(v)
	}
	cases := []struct {
		slo  float64
		want uint64
	}{
		{0.05, 6},  // 0.1 x2, 0.4, 0.8, 1.5, 3.0
		{0.5, 3},   // 0.8, 1.5, 3.0
		{5.0, 0},   // beyond max
		{0.001, 8}, // below min
	}
	for _, tc := range cases {
		if got := h.CountAbove(tc.slo); got != tc.want {
			t.Errorf("CountAbove(%v) = %d, want %d", tc.slo, got, tc.want)
		}
	}
}

// TestHistExcessAboveOracle checks the exceedance sum against the
// exact oracle within bin-midpoint resolution.
func TestHistExcessAboveOracle(t *testing.T) {
	var h Hist
	vals := []float64{0.1, 0.2, 0.6, 1.0, 2.5}
	for _, v := range vals {
		h.Record(v)
	}
	const slo = 0.5
	exact := 0.0
	for _, v := range vals {
		if v > slo {
			exact += v - slo
		}
	}
	got := h.ExcessAbove(slo)
	// Log-scale bins are a few percent wide; the midpoint estimate must
	// land within 10% of the exact exceedance.
	if math.Abs(got-exact) > 0.10*exact {
		t.Fatalf("ExcessAbove(%v) = %v, exact %v", slo, got, exact)
	}
	if h.ExcessAbove(10) != 0 {
		t.Fatal("exceedance beyond max must be zero")
	}
	below := h.ExcessAbove(0.001)
	if math.Abs(below-(h.Sum()-0.001*float64(h.Count()))) > 0.10*below {
		t.Fatalf("exceedance below min = %v", below)
	}
}

// TestRecorderClassAttribution pins the per-class split: read-only and
// read-write observations land in their own window p95 series while
// the combined histogram sees everything once.
func TestRecorderClassAttribution(t *testing.T) {
	r := NewRecorder(2.0)
	for i := 0; i < 40; i++ {
		r.RecordKind(0.010, false, -1) // fast reads
	}
	for i := 0; i < 10; i++ {
		r.RecordKind(0.200, true, -1) // slow writes
	}
	if got := r.RunHist().Count(); got != 50 {
		t.Fatalf("combined count = %d (classes must not double-count)", got)
	}
	r.Rotate(0)
	s := r.Series()
	read := s.ByName(LatencyReadP95).At(0)
	rw := s.ByName(LatencyRWP95).At(0)
	if read <= 0 || rw <= 0 || read >= rw {
		t.Fatalf("class p95 split: read %v ms, rw %v ms; want 0 < read < rw", read, rw)
	}
	// The combined window p95 sits at the write latency (10 of 50 =
	// the top 20%, so p95 lands among the writes).
	if p95 := s.ByName(LatencyP95).At(0); math.Abs(p95-rw) > 0.2*rw {
		t.Fatalf("combined p95 %v ms should track the slow class %v ms", p95, rw)
	}
	// Class state resets with the window.
	r.RecordKind(0.050, false, -1)
	r.Rotate(0)
	if s.ByName(LatencyRWP95).At(1) != 0 {
		t.Fatal("write-class window series should be empty after reset")
	}
}

// TestRecorderAbandonAccounting pins the SLO-debt split's invariant:
// every abandoned response is recorded in the served histogram too, so
// the abandoned histogram is a subset and the per-window Abandoned
// series counts the window's driven-away sessions.
func TestRecorderAbandonAccounting(t *testing.T) {
	r := NewRecorder(2.0)
	for i := 0; i < 20; i++ {
		r.RecordKind(0.050, false, -1)
	}
	// Three responses so slow the session gave up.
	for i := 0; i < 3; i++ {
		r.RecordKind(6.0, false, -1)
		r.NoteAbandon(6.0)
	}
	ab := r.AbandonedHist()
	if ab.Count() != 3 {
		t.Fatalf("abandoned count = %d", ab.Count())
	}
	if r.RunHist().Count() != 23 {
		t.Fatalf("served count = %d; abandoned responses must stay in the served histogram", r.RunHist().Count())
	}
	const slo = 1.0
	if served, abandoned := r.RunHist().CountAbove(slo), ab.CountAbove(slo); abandoned > served {
		t.Fatalf("abandoned violations %d > total %d", abandoned, served)
	}
	if servedDebt, abDebt := r.RunHist().ExcessAbove(slo), ab.ExcessAbove(slo); abDebt > servedDebt {
		t.Fatalf("abandoned debt %v > total %v", abDebt, servedDebt)
	}
	r.Rotate(0)
	r.RecordKind(0.050, false, -1)
	r.Rotate(0)
	s := r.Series()
	if s.ByName(Abandoned).At(0) != 3 || s.ByName(Abandoned).At(1) != 0 {
		t.Fatalf("abandoned series = %v, want [3 0]", s.ByName(Abandoned).Values)
	}
}

// TestReplicaGaugeSeries: the replicas series exists only once its
// Gauge is registered, samples it at every window boundary, and
// follows the core series.
func TestReplicaGaugeSeries(t *testing.T) {
	r := NewRecorder(2.0)
	if r.Series().ByName(Replicas) != nil {
		t.Fatal("replicas series must be absent until registered")
	}
	core := len(r.Series().All())
	n := 1
	r.Gauge(Replicas, "replicas", func() float64 { return float64(n) })
	r.Rotate(0)
	n = 3
	r.Rotate(0)
	s := r.Series().ByName(Replicas)
	if s == nil || s.At(0) != 1 || s.At(1) != 3 {
		t.Fatalf("replica gauge series = %v, want [1 3]", s)
	}
	all := r.Series().All()
	if len(all) != core+1 || all[core] != s {
		t.Fatalf("registry holds %d series with replicas at the end, want %d", len(all), core+1)
	}
}
