package runner

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"vwchar/internal/experiment"
	"vwchar/internal/load"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/timeseries"
)

// tinyConfig returns a configuration small enough that a replication
// finishes in tens of milliseconds, so sweep tests stay fast.
func tinyConfig(env experiment.Env, mix experiment.MixKind) experiment.Config {
	cfg := experiment.DefaultConfig(env, mix)
	cfg.Clients = 20
	cfg.Duration = 40 * sim.Second
	cfg.Dataset = rubis.DatasetConfig{
		Regions:         10,
		Categories:      8,
		Users:           400,
		ActiveItems:     150,
		OldItems:        250,
		BidsPerItem:     3,
		CommentsPerUser: 1,
		BufferPages:     256,
	}
	return cfg
}

func tinyPoints() []Point {
	return []Point{
		{Name: "virtualized/browsing", Config: tinyConfig(experiment.Virtualized, experiment.MixBrowsing)},
		{Name: "physical/bidding", Config: tinyConfig(experiment.Physical, experiment.MixBidding)},
	}
}

func TestFullGridShape(t *testing.T) {
	points := FullGrid(nil)
	if len(points) != 10 {
		t.Fatalf("full grid has %d points, want 10 (2 envs x 5 mixes)", len(points))
	}
	seen := map[string]bool{}
	for _, p := range points {
		if seen[p.Name] {
			t.Fatalf("duplicate point name %q", p.Name)
		}
		seen[p.Name] = true
		if err := p.Config.Validate(); err != nil {
			t.Fatalf("%s: invalid default config: %v", p.Name, err)
		}
	}
	mutated := FullGrid(func(c *experiment.Config) { c.Clients = 77 })
	if mutated[3].Config.Clients != 77 {
		t.Fatalf("mutate not applied: clients = %d", mutated[3].Config.Clients)
	}
}

// TestJobSeedsDependOnlyOnNames pins the seed-derivation contract:
// per-job seeds are a pure function of (root seed, point name, rep), so
// neither worker count nor the presence of other grid points can
// perturb a replication's random stream.
func TestJobSeedsDependOnlyOnNames(t *testing.T) {
	spec := SweepSpec{Points: tinyPoints(), Replications: 3, RootSeed: 99}
	jobs := spec.Jobs()
	if len(jobs) != 6 {
		t.Fatalf("expanded %d jobs, want 6", len(jobs))
	}
	seeds := map[uint64]bool{}
	for i, j := range jobs {
		if j.Index != i {
			t.Fatalf("job %d has Index %d", i, j.Index)
		}
		if seeds[j.Config.Seed] {
			t.Fatalf("duplicate derived seed %d", j.Config.Seed)
		}
		seeds[j.Config.Seed] = true
	}

	// Dropping the first point must leave the second point's seeds
	// untouched (name-keyed derivation, not position-keyed).
	shrunk := SweepSpec{Points: spec.Points[1:], Replications: 3, RootSeed: 99}
	for i, j := range shrunk.Jobs() {
		if want := jobs[3+i].Config.Seed; j.Config.Seed != want {
			t.Fatalf("rep %d seed changed when grid shrank: %d != %d", i, j.Config.Seed, want)
		}
	}

	// A different root seed must move every job seed.
	other := SweepSpec{Points: spec.Points, Replications: 3, RootSeed: 100}
	for i, j := range other.Jobs() {
		if j.Config.Seed == jobs[i].Config.Seed {
			t.Fatalf("job %d seed did not change with root seed", i)
		}
	}
}

// TestSweepByteIdenticalAcrossWorkerCounts is the determinism
// regression test: the same root seed must produce byte-identical
// aggregated output at workers=1 and workers=8.
func TestSweepByteIdenticalAcrossWorkerCounts(t *testing.T) {
	table := func(workers int) string {
		sr, err := Run(SweepSpec{
			Points:       tinyPoints(),
			Replications: 2,
			RootSeed:     42,
			Workers:      workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := sr.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := table(1)
	par := table(8)
	if seq != par {
		t.Fatalf("aggregated output differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "virtualized/browsing") || !strings.Contains(seq, experiment.MetricThroughput) {
		t.Fatalf("table missing expected content:\n%s", seq)
	}
}

// TestTelemetryCSVByteIdenticalAcrossWorkerCounts extends the
// determinism contract to the windowed telemetry series: every
// replication's telemetry CSV (the table rubisim -csv writes) must be
// byte-identical at workers=1 and workers=8.
func TestTelemetryCSVByteIdenticalAcrossWorkerCounts(t *testing.T) {
	render := func(workers int) string {
		sr, err := Run(SweepSpec{
			Points:       tinyPoints(),
			Replications: 2,
			RootSeed:     42,
			Workers:      workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		for i := range sr.Points {
			pr := &sr.Points[i]
			for rep, r := range pr.Reps {
				fmt.Fprintf(&buf, "# %s rep %d\n", pr.Point.Name, rep)
				if err := timeseries.WriteTableCSV(&buf, r.Telemetry.All()...); err != nil {
					t.Fatal(err)
				}
			}
		}
		return buf.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("telemetry CSV differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "latency_p95_ms") {
		t.Fatalf("telemetry CSV missing latency series:\n%.400s", seq)
	}
}

func TestPointMetrics(t *testing.T) {
	sr, err := Run(SweepSpec{Points: tinyPoints(), Replications: 2, RootSeed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	virt, phys := &sr.Points[0], &sr.Points[1]
	if m := virt.Metric(experiment.MetricThroughput); m.N != 2 || m.Mean <= 0 {
		t.Fatalf("virt throughput = %+v", m)
	}
	// Two different seeds should not produce the exact same throughput,
	// and the CI must cover the spread.
	if m := virt.Metric(experiment.MetricThroughput); m.Std == 0 {
		t.Fatalf("replication seeds identical? std = 0 for %+v", m)
	}
	if m := virt.Metric(experiment.MetricCPU(experiment.TierDom0)); m.N != 2 {
		t.Fatalf("virtualized point missing dom0 metrics: %+v", m)
	}
	if m := phys.Metric(experiment.MetricCPU(experiment.TierDom0)); m.N != 0 {
		t.Fatalf("physical point reports dom0 metrics: %+v", m)
	}
	if m := phys.Metric(experiment.MetricWriteFrac); m.Mean <= 0 {
		t.Fatalf("bidding mix write fraction = %+v", m)
	}
}

func TestProgressReporting(t *testing.T) {
	var events []Progress
	_, err := Run(SweepSpec{
		Points:       tinyPoints(),
		Replications: 2,
		RootSeed:     1,
		Workers:      3,
		OnProgress:   func(p Progress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d progress events, want 4", len(events))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != 4 {
			t.Fatalf("event %d = %d/%d, want %d/4", i, ev.Done, ev.Total, i+1)
		}
		if ev.Err != nil {
			t.Fatalf("event %d unexpected error: %v", i, ev.Err)
		}
	}
}

// TestPanicCapture injects a panic into one point's replications and
// checks it is confined to that point: the sweep reports the failure,
// aggregates the healthy point, and never crashes the pool.
func TestPanicCapture(t *testing.T) {
	orig := runExperiment
	defer func() { runExperiment = orig }()
	runExperiment = func(cfg experiment.Config) (*experiment.Result, error) {
		if cfg.Mix == experiment.MixBidding {
			panic("injected failure")
		}
		return orig(cfg)
	}

	sr, err := Run(SweepSpec{Points: tinyPoints(), Replications: 2, RootSeed: 5, Workers: 4})
	if err == nil {
		t.Fatal("expected sweep error")
	}
	if !strings.Contains(err.Error(), "2 of 4 replications failed") {
		t.Fatalf("error = %v", err)
	}
	if len(sr.Failures) != 2 {
		t.Fatalf("recorded %d failures, want 2", len(sr.Failures))
	}
	for _, f := range sr.Failures {
		if f.Job.Point != "physical/bidding" || !strings.Contains(f.Err.Error(), "injected failure") {
			t.Fatalf("unexpected failure record: %v", f)
		}
	}
	if m := sr.Points[0].Metric(experiment.MetricThroughput); m.N != 2 || m.Mean <= 0 {
		t.Fatalf("healthy point not aggregated: %+v", m)
	}
	if m := sr.Points[1].Metric(experiment.MetricThroughput); m.N != 0 {
		t.Fatalf("failed point aggregated from nothing: %+v", m)
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := Run(SweepSpec{}); err == nil {
		t.Fatal("empty sweep should fail")
	}
	dup := []Point{
		{Name: "p", Config: tinyConfig(experiment.Virtualized, experiment.MixBrowsing)},
		{Name: "p", Config: tinyConfig(experiment.Physical, experiment.MixBrowsing)},
	}
	if _, err := Run(SweepSpec{Points: dup}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate names not rejected: %v", err)
	}
}

func TestSummarizeCI(t *testing.T) {
	m := summarize([]float64{1, 2, 3, 4, 5})
	if m.N != 5 || m.Mean != 3 {
		t.Fatalf("summarize = %+v", m)
	}
	wantStd := math.Sqrt(2.5)
	if math.Abs(m.Std-wantStd) > 1e-12 {
		t.Fatalf("std = %v, want %v", m.Std, wantStd)
	}
	wantCI := 2.776 * wantStd / math.Sqrt(5)
	if math.Abs(m.CI95-wantCI) > 1e-9 {
		t.Fatalf("ci95 = %v, want %v", m.CI95, wantCI)
	}
	if one := summarize([]float64{7}); one.Std != 0 || one.CI95 != 0 || one.Mean != 7 {
		t.Fatalf("single sample = %+v", one)
	}
	if z := summarize(nil); z.N != 0 {
		t.Fatalf("empty sample = %+v", z)
	}
}

// tinyLoadMutate scales a load-grid config down to test size, including
// the per-kind time parameters so every scenario exercises its shape
// inside the short window.
func tinyLoadMutate(c *experiment.Config) {
	tiny := tinyConfig(c.Environment, c.Mix)
	c.Clients = tiny.Clients
	c.Duration = tiny.Duration
	c.Dataset = tiny.Dataset
	l := c.Load
	l.RampSeconds = 5
	switch l.Kind {
	case load.Diurnal:
		l.PeriodSeconds = 20
	case load.Spike:
		l.SpikeAt, l.SpikeRamp, l.SpikeHold = 10, 4, 10
	case load.Bursty:
		l.BaseDwell, l.BurstDwell = 10, 4
	}
}

// TestLoadGridShape pins the open-loop grid construction: one point per
// env x scenario, per-point spec copies (no catalog aliasing), and
// names unique enough for the runner's duplicate check.
func TestLoadGridShape(t *testing.T) {
	points := LoadGrid(experiment.Envs(), experiment.MixBrowsing, load.Scenarios(), tinyLoadMutate)
	want := len(experiment.Envs()) * len(load.Scenarios())
	if len(points) != want {
		t.Fatalf("load grid has %d points, want %d", len(points), want)
	}
	seen := map[string]bool{}
	for _, p := range points {
		if seen[p.Name] {
			t.Fatalf("duplicate point name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Config.Load == nil {
			t.Fatalf("point %q lost its load spec", p.Name)
		}
		if err := p.Config.Validate(); err != nil {
			t.Fatalf("point %q invalid: %v", p.Name, err)
		}
	}
	// The mutate wrote through per-point copies, not the shared catalog.
	for _, sc := range load.Scenarios() {
		if sc.Spec.RampSeconds == 5 {
			t.Fatalf("mutate leaked into the catalog: %+v", sc)
		}
	}
}

// TestLoadSweepReportsSessionMetrics runs a small open-loop sweep and
// checks the session metrics surface through aggregation while
// closed-loop points keep their original metric set.
func TestLoadSweepReportsSessionMetrics(t *testing.T) {
	points := LoadGrid([]experiment.Env{experiment.Virtualized}, experiment.MixBrowsing,
		load.Scenarios()[:2], tinyLoadMutate)
	points = append(points, Point{Name: "closed/browsing", Config: tinyConfig(experiment.Virtualized, experiment.MixBrowsing)})
	sr, err := Run(SweepSpec{Points: points, Replications: 2, RootSeed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sr.Points {
		pr := &sr.Points[i]
		started := pr.Metric("sessions_started")
		if pr.Point.Config.Load != nil {
			if started.N != 2 || started.Mean <= 0 {
				t.Fatalf("%s: sessions_started = %+v", pr.Point.Name, started)
			}
		} else if started.N != 0 {
			t.Fatalf("closed-loop point reports session metrics: %+v", started)
		}
		if thr := pr.Metric(experiment.MetricThroughput); thr.Mean <= 0 {
			t.Fatalf("%s: no throughput", pr.Point.Name)
		}
	}
}
