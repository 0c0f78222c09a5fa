package vwchar_test

import (
	"bytes"
	"strings"
	"testing"

	"vwchar"
	"vwchar/internal/telemetry"
)

// scaledPair runs a fast browse+bid pair for API-level tests.
func scaledPair(t *testing.T, env vwchar.Env, seed uint64) *vwchar.Pair {
	t.Helper()
	pair, err := vwchar.RunPairScaled(env, seed, 200, 90)
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

func TestPublicAPIEndToEnd(t *testing.T) {
	virt := scaledPair(t, vwchar.Virtualized, 42)
	phys := scaledPair(t, vwchar.Physical, 142)

	// Figures 1-4 from the virtualized pair, 5-8 from the physical pair.
	for id := 1; id <= 8; id++ {
		pair := virt
		if id >= 5 {
			pair = phys
		}
		fig, err := vwchar.BuildFigure(id, pair.Browse, pair.Bid)
		if err != nil {
			t.Fatalf("figure %d: %v", id, err)
		}
		var buf bytes.Buffer
		if err := vwchar.RenderFigure(&buf, fig); err != nil {
			t.Fatalf("render figure %d: %v", id, err)
		}
		if !strings.Contains(buf.String(), "browse") {
			t.Fatalf("figure %d rendering lacks legend", id)
		}
		buf.Reset()
		if err := vwchar.WriteFigureCSV(&buf, fig); err != nil {
			t.Fatalf("csv figure %d: %v", id, err)
		}
		if !strings.Contains(buf.String(), "time_s") {
			t.Fatalf("figure %d csv lacks header", id)
		}
	}

	rep := vwchar.Characterize(virt, phys)
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Front-end / back-end") {
		t.Fatal("report incomplete")
	}

	// The windowed telemetry pipeline reaches the public surface: the
	// per-window series exist, export as one aligned CSV table, and
	// feed the transient analysis.
	tel := virt.Browse.Telemetry
	if tel == nil || tel.Windows() == 0 {
		t.Fatal("run has no windowed telemetry")
	}
	buf.Reset()
	if err := vwchar.WriteTelemetryCSV(&buf, virt.Browse); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(buf.String(), "\n")
	if !strings.HasPrefix(header, "time_s,") {
		t.Fatalf("telemetry csv header %q lacks the time column", header)
	}
	for _, s := range tel.All() {
		if !strings.Contains(header, s.Name+" (") {
			t.Fatalf("telemetry csv header %q lacks series %q", header, s.Name)
		}
	}
	tr := vwchar.AnalyzeTransient(tel.ByName(telemetry.LatencyP95), vwchar.TransientConfig{})
	if tr.PeakP95 <= 0 {
		t.Fatal("transient analysis saw no latency")
	}
	if tr.Saturated() {
		t.Fatalf("steady closed-loop run should not cross 10x steady p95: %+v", tr)
	}
}

func TestHeadlineDirectionsAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled directional check skipped in -short mode")
	}
	virt := scaledPair(t, vwchar.Virtualized, 7)
	phys := scaledPair(t, vwchar.Physical, 107)

	tier := vwchar.TierRatios(virt.Browse)
	if tier.CPU <= 1 || tier.Network <= 1 {
		t.Fatalf("front end should dominate: %+v", tier)
	}
	vmdom := vwchar.VMToDom0Ratios(virt.Browse)
	if vmdom.CPU <= 1 {
		t.Fatalf("VM cycle counters should exceed dom0: %+v", vmdom)
	}
	if vmdom.Disk >= 1 {
		t.Fatalf("dom0 should perform more disk I/O than VMs observe: %+v", vmdom)
	}
	env := vwchar.EnvAggregateRatios(virt.Browse, phys.Browse)
	if env.CPU <= 1 {
		t.Fatalf("non-virt should demand more CPU than dom0: %+v", env)
	}
	delta := vwchar.PhysicalDelta(virt.Browse, phys.Browse)
	if delta.CPU <= 0 {
		t.Fatalf("non-virt physical CPU demand should exceed virt: %+v", delta)
	}
}

func TestTable1API(t *testing.T) {
	rows := vwchar.Table1()
	if len(rows) < 30 {
		t.Fatalf("Table 1 rows = %d", len(rows))
	}
	if vwchar.TotalProfiledMetrics() != 518 {
		t.Fatalf("total metrics = %d, want 518", vwchar.TotalProfiledMetrics())
	}
	var buf bytes.Buffer
	if err := vwchar.WriteTable1(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFigureSpecsCoverAllEight(t *testing.T) {
	specs := vwchar.FigureSpecs()
	if len(specs) != 8 {
		t.Fatalf("specs = %d", len(specs))
	}
	virtCount := 0
	for _, s := range specs {
		if s.Env == vwchar.Virtualized {
			virtCount++
		}
	}
	if virtCount != 4 {
		t.Fatalf("virtualized figures = %d, want 4", virtCount)
	}
}

func TestMixSweepCompositions(t *testing.T) {
	// The paper's five compositions all run; spot-check one composite.
	cfg := vwchar.DefaultConfig(vwchar.Virtualized, vwchar.Mix50Browse)
	cfg.Clients = 120
	cfg.Duration = 60 * 1e9
	r, err := vwchar.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Fatal("composite mix served nothing")
	}
	if r.WriteFraction <= 0 {
		t.Fatal("50/50 mix should include writes")
	}
}
