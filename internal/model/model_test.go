package model

import (
	"math"
	"strings"
	"testing"

	"vwchar/internal/experiment"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/sysstat"
	"vwchar/internal/timeseries"
)

func testDataset() rubis.DatasetConfig {
	return rubis.DatasetConfig{
		Regions: 12, Categories: 8, Users: 800,
		ActiveItems: 250, OldItems: 400,
		BidsPerItem: 3, CommentsPerUser: 1, BufferPages: 128,
	}
}

func testRun(t *testing.T, mix experiment.MixKind) *experiment.Result {
	t.Helper()
	cfg := experiment.DefaultConfig(experiment.Virtualized, mix)
	cfg.Clients = 250
	cfg.Duration = 150 * sim.Second
	cfg.Dataset = testDataset()
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFitSeries(t *testing.T) {
	res := testRun(t, experiment.MixBrowsing)
	s := res.Resource(experiment.TierWeb, sysstat.CPU)
	m, err := FitSeries(s)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mean <= 0 || m.Std <= 0 {
		t.Fatalf("moments: %+v", m)
	}
	if m.KS >= 0.5 {
		t.Fatalf("no family fits better than KS %.3f", m.KS)
	}
	if m.Phi <= -1 || m.Phi >= 1 {
		t.Fatalf("phi = %v outside stationary region", m.Phi)
	}
	if !strings.Contains(m.String(), "AR1") {
		t.Fatalf("String() = %q", m.String())
	}
}

func TestFitSeriesErrors(t *testing.T) {
	short := timeseries.New("short", "x")
	short.Append(1)
	if _, err := FitSeries(short); err == nil {
		t.Fatal("short series should error")
	}
}

func TestFitWorkloadModel(t *testing.T) {
	res := testRun(t, experiment.MixBrowsing)
	wm, err := Fit(res)
	if err != nil {
		t.Fatal(err)
	}
	if wm.Environment != experiment.Virtualized || wm.Mix != experiment.MixBrowsing {
		t.Fatalf("identity: %+v", wm)
	}
	keys := wm.Keys()
	if len(keys) < 8 {
		t.Fatalf("fitted only %d series: %v", len(keys), keys)
	}
	if _, ok := wm.Series["webapp/cpu"]; !ok {
		t.Fatal("webapp/cpu missing from model")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("Keys not sorted")
		}
	}
}

func TestTransactionFootprints(t *testing.T) {
	tm, err := FitTransactions(testDataset(), 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tm.Footprints) != len(rubis.AllInteractions()) {
		t.Fatalf("footprints = %d", len(tm.Footprints))
	}
	view := tm.Footprints[rubis.ViewItem]
	home := tm.Footprints[rubis.Home]
	if view.DBCycles <= home.DBCycles {
		t.Fatal("ViewItem should cost more DB than the static Home page")
	}
	if home.ToDB != 0 {
		t.Fatalf("Home should not talk to the DB, got %v bytes", home.ToDB)
	}
	bid := tm.Footprints[rubis.StoreBid]
	if bid.WriteFraction != 1 {
		t.Fatalf("StoreBid write fraction = %v", bid.WriteFraction)
	}
	if bid.DiskWriteBytes <= 0 {
		t.Fatal("StoreBid should journal to disk")
	}
	if _, err := FitTransactions(testDataset(), 0, 3); err == nil {
		t.Fatal("zero samples should error")
	}
}

func TestStationaryDistribution(t *testing.T) {
	dist := StationaryDistribution(rubis.BrowsingMix(), 100000, 7)
	total := 0.0
	for _, f := range dist {
		total += f
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("stationary distribution sums to %v", total)
	}
	if dist[rubis.SearchItemsInCategory] < 0.1 {
		t.Fatalf("searches should dominate browsing: %v", dist[rubis.SearchItemsInCategory])
	}
	if dist[rubis.StoreBid] != 0 {
		t.Fatal("browsing mix must not bid")
	}
}

// TestPredictIsDeterministic repeats one prediction and requires every
// field to be bit-identical: the per-kind sums must run in a fixed
// order, since float addition is not associative.
func TestPredictIsDeterministic(t *testing.T) {
	tm, err := FitTransactions(testDataset(), 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	mix := rubis.NewCompositeMix(0.5)
	want := tm.Predict(mix, 100, 20000, 7)
	for i := 0; i < 50; i++ {
		if got := tm.Predict(mix, 100, 20000, 7); got != want {
			t.Fatalf("call %d: %+v, first call %+v", i, got, want)
		}
	}
}

// The headline test for the paper's future-work extension: the
// transaction-level model predicts the simulated web tier CPU demand
// within a modest tolerance, without running the simulation.
func TestTransactionModelPredictsSimulatedDemand(t *testing.T) {
	res := testRun(t, experiment.MixBrowsing)
	tm, err := FitTransactions(testDataset(), 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(res.Completed) / res.Config.Duration.Sec()
	pred := tm.Predict(rubis.BrowsingMix(), rate, 200000, 9)

	actualWeb := res.Resource(experiment.TierWeb, sysstat.CPU).Mean()
	if relErr := math.Abs(pred.WebCyclesPer2s-actualWeb) / actualWeb; relErr > 0.25 {
		t.Fatalf("web demand prediction off by %.0f%% (pred %.3g, actual %.3g)",
			relErr*100, pred.WebCyclesPer2s, actualWeb)
	}
	actualDB := res.Resource(experiment.TierDB, sysstat.CPU).Mean()
	if relErr := math.Abs(pred.DBCyclesPer2s-actualDB) / actualDB; relErr > 0.4 {
		t.Fatalf("db demand prediction off by %.0f%% (pred %.3g, actual %.3g)",
			relErr*100, pred.DBCyclesPer2s, actualDB)
	}
	if pred.WriteFraction != 0 {
		t.Fatalf("browsing prediction has writes: %v", pred.WriteFraction)
	}
	// Bidding prediction should carry a write fraction.
	bidPred := tm.Predict(rubis.BiddingMix(), rate, 200000, 9)
	if bidPred.WriteFraction <= 0 {
		t.Fatal("bidding prediction lost its writes")
	}
	if bidPred.DBDiskKBPer2s <= pred.DBDiskKBPer2s {
		t.Fatal("bidding should predict more DB disk demand than browsing")
	}
}
