package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vwchar"
	"vwchar/internal/sim"
)

// TestTraceAnalysisSmoke exercises the CSV-analysis mode on a trace the
// simulator itself exported.
func TestTraceAnalysisSmoke(t *testing.T) {
	cfg := vwchar.DefaultConfig(vwchar.Virtualized, vwchar.MixBrowsing)
	cfg.Clients = 20
	cfg.Duration = 60 * sim.Second
	res, err := vwchar.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Resource(vwchar.TierWeb, vwchar.CPU).WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run(path); err != nil {
		t.Fatal(err)
	}
}

// TestSweepModeSmoke runs the no-argument sweep mode in-process at a
// tiny scale: the full 2-env × 5-mix grid, one replication each, over a
// small worker pool.
func TestSweepModeSmoke(t *testing.T) {
	var out, progress bytes.Buffer
	opts := sweepOptions{
		Workers:      4,
		Replications: 1,
		Seed:         42,
		Clients:      15,
		Duration:     30,
		Progress:     &progress,
	}
	if err := runSweep(opts, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"full grid: 10 points x 1 replications",
		"virtualized/browsing",
		"physical/70/30",
		"throughput_rps",
		"web-tier CPU demand",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("sweep output missing %q:\n%s", want, got)
		}
	}
	if !strings.Contains(progress.String(), "[10/10]") {
		t.Fatalf("progress did not reach 10/10:\n%s", progress.String())
	}
}
