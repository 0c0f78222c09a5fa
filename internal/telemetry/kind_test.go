package telemetry

import (
	"math"
	"testing"

	"vwchar/internal/rng"
)

// TestRecorderKindAttribution pins the per-interaction histogram bank:
// observations route to their dense kind index, out-of-range kinds
// (including the classic -1 "no attribution") only feed the combined
// histograms, and the bank never double-counts the run total.
func TestRecorderKindAttribution(t *testing.T) {
	r := NewRecorder(2.0)
	for i := 0; i < 30; i++ {
		r.RecordKind(0.010, false, 3) // a fast read page
	}
	for i := 0; i < 10; i++ {
		r.RecordKind(0.300, true, 7) // a slow write page
	}
	r.RecordKind(0.050, false, -1)          // unattributed
	r.RecordKind(0.050, false, MaxKinds)    // out of range: skipped
	r.RecordKind(0.050, false, MaxKinds+40) // far out of range

	if got := r.KindHist(3).Count(); got != 30 {
		t.Fatalf("kind 3 count = %d, want 30", got)
	}
	if got := r.KindHist(7).Count(); got != 10 {
		t.Fatalf("kind 7 count = %d, want 10", got)
	}
	if got := r.KindHist(0).Count(); got != 0 {
		t.Fatalf("untouched kind holds %d observations", got)
	}
	if r.KindHist(-1) != nil || r.KindHist(MaxKinds) != nil {
		t.Fatal("out-of-range KindHist must be nil")
	}
	if got := r.RunHist().Count(); got != 43 {
		t.Fatalf("combined count = %d, want 43 (bank must not double-count)", got)
	}
	// The bank's quantiles reflect only their own kind.
	if p95 := r.KindHist(7).Quantile(0.95); math.Abs(p95/0.300-1) > relativeErrorBound {
		t.Fatalf("kind 7 p95 = %v, want ~0.3", p95)
	}
	if mean := r.KindHist(3).Mean(); math.Abs(mean/0.010-1) > relativeErrorBound {
		t.Fatalf("kind 3 mean = %v, want ~0.01", mean)
	}
}

// TestRecorderKindSurvivesRotation pins that the bank is run-level:
// window rotation must not reset per-kind histograms.
func TestRecorderKindSurvivesRotation(t *testing.T) {
	r := NewRecorder(2.0)
	r.RecordKind(0.020, false, 5)
	r.Rotate(0)
	r.RecordKind(0.020, false, 5)
	r.Rotate(0)
	if got := r.KindHist(5).Count(); got != 2 {
		t.Fatalf("kind 5 count across rotations = %d, want 2", got)
	}
}

// TestRecorderKindZeroAlloc extends the record-path allocation gate to
// the attributed form (all 26 interaction kinds ride this path). Each
// kind's first record allocates its histogram, so every kind is
// recorded once before the gate: the steady state allocates nothing.
func TestRecorderKindZeroAlloc(t *testing.T) {
	rec := NewRecorder(2)
	for kind := 0; kind < MaxKinds; kind++ {
		rec.RecordKind(0.001, false, kind)
	}
	r := rng.NewSource(11).Stream("kinds")
	kind := 0
	v := 0.001
	allocs := testing.AllocsPerRun(10000, func() {
		rec.RecordKind(v, kind&1 == 1, kind)
		kind = (kind + 1) % MaxKinds
		v = 0.001 + 0.01*r.Float64()
	})
	if allocs != 0 {
		t.Fatalf("attributed record path allocates %v allocs/op, want 0", allocs)
	}
}

// TestRecorderKindHistsAreLazy pins that the bank takes a kind's
// histogram only on its first record: a kind never recorded reads as
// the one shared empty histogram, and a recorded kind gets its own.
// The histogram comes from a pool, so a first record allocates at most
// once: never when a released recorder left one to recycle.
func TestRecorderKindHistsAreLazy(t *testing.T) {
	r := NewRecorder(2)
	empty := r.KindHist(0)
	if empty != r.KindHist(MaxKinds-1) || empty.Count() != 0 {
		t.Fatal("unrecorded kinds must share one empty histogram")
	}
	kind := 0
	allocs := testing.AllocsPerRun(MaxKinds-1, func() {
		r.RecordKind(0.010, false, kind)
		kind++
	})
	if allocs > 1 {
		t.Fatalf("a kind's first record makes %v allocations, want at most 1 (its histogram)", allocs)
	}
	for k := 0; k < MaxKinds; k++ {
		if h := r.KindHist(k); h == empty || h.Count() != 1 {
			t.Fatalf("kind %d reads %d observations, want 1 in its own histogram", k, h.Count())
		}
	}
	if empty.Count() != 0 {
		t.Fatalf("shared empty histogram holds %d observations", empty.Count())
	}
}

// TestRecorderReleaseRecyclesBuffers pins what Release hands back: the
// per-kind histograms reset to the zero Hist, and a reservoir that the
// next recorder starts empty, so recycling never leaks one run's
// observations into another. Recording after Release panics.
func TestRecorderReleaseRecyclesBuffers(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 100; i++ {
		r.RecordKind(0.001*float64(i+1), i%3 == 0, i%5)
	}
	if r.Quantile(0.5) == 0 {
		t.Fatal("recorder holds no observations; the check would be vacuous")
	}
	var hists []*Hist
	for k := 0; k < 5; k++ {
		hists = append(hists, r.kind[k])
	}
	r.Release()
	for k, h := range hists {
		if *h != (Hist{}) {
			t.Fatalf("kind %d's released histogram is not the zero Hist", k)
		}
		if r.kind[k] != nil {
			t.Fatalf("kind %d still referenced after Release", k)
		}
	}
	if r.exact != nil {
		t.Fatal("reservoir still referenced after Release")
	}

	next := NewRecorder(2)
	if got := len(next.exact); got != 0 {
		t.Fatalf("recycled reservoir holds %d observations, want 0", got)
	}
	if got := cap(next.exact); got != DefaultExactCap {
		t.Fatalf("recycled reservoir has capacity %d, want %d", got, DefaultExactCap)
	}
	next.RecordKind(0.25, false, 2)
	if got := next.KindHist(2).Count(); got != 1 {
		t.Fatalf("recycled kind histogram counts %d observations, want 1", got)
	}
	if got := next.Quantile(0.5); got != 0.25 {
		t.Fatalf("median %v after one observation, want 0.25", got)
	}
	next.Release()

	defer func() {
		if recover() == nil {
			t.Fatal("recording into a released recorder did not panic")
		}
	}()
	r.RecordKind(0.01, false, -1)
}
