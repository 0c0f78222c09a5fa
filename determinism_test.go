package vwchar_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"vwchar"
	"vwchar/internal/sim"
)

// goldenSweepSHA256 is the SHA-256 of the aggregated sweep table for the
// reduced grid below, captured on the kernel *before* the event-pooling
// rewrite (PR 3). The simulation's determinism contract says this stream
// depends only on the seed and the grid — never on scheduler internals —
// so any kernel or model-layer change that shifts event ordering shows
// up here as a hash mismatch rather than as silently different figures.
//
// If a PR intentionally changes model behaviour (costs, workloads,
// RNG draw sequence), regenerate with:
//
//	go test -run TestFullSweepOutputMatchesGoldenHash -v
//
// and update the constant alongside an explanation of what moved.
const goldenSweepSHA256 = "ed6435cc16aa747ba32cc3214b07c763fdf27ec1949404d0402c5791313bdfaf"

// goldenSweepSpec is the reduced full grid used for the golden hash:
// every (env, mix) point of the paper's sweep, 2 replications, small
// dataset — big enough to exercise both deployments, all five mixes,
// the storage engine, and millions of kernel events, small enough for
// CI.
func goldenSweepSpec() vwchar.SweepSpec {
	return vwchar.SweepSpec{
		Points: vwchar.FullSweepGrid(func(c *vwchar.Config) {
			c.Clients = 20
			c.Duration = 20 * sim.Second
			c.Dataset.Users = 2000
			c.Dataset.ActiveItems = 600
			c.Dataset.OldItems = 1300
			c.Dataset.BufferPages = 500
		}),
		Replications: 2,
		RootSeed:     42,
		Workers:      1,
	}
}

// TestFullSweepOutputMatchesGoldenHash hashes the per-grid-point stats
// stream of the full sweep and compares it against the hash committed
// before the kernel rewrite: the pooled-event kernel must replay the
// paper's experiment grid byte-for-byte.
func TestFullSweepOutputMatchesGoldenHash(t *testing.T) {
	sr, err := vwchar.Sweep(goldenSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sr.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	got := hex.EncodeToString(sum[:])
	if got != goldenSweepSHA256 {
		t.Fatalf("sweep output hash changed:\n  got  %s\n  want %s\n(%d bytes of table output; see the constant's comment for when updating is legitimate)",
			got, goldenSweepSHA256, buf.Len())
	}
}

// loadScenarioSweepSpec is a reduced open-loop grid: both deployments
// crossed with every catalog scenario plus an inline trace replay, the
// per-kind time parameters compressed into the short window.
func loadScenarioSweepSpec(workers int) vwchar.SweepSpec {
	mutate := func(c *vwchar.Config) {
		c.Duration = 40 * sim.Second
		c.Dataset.Users = 2000
		c.Dataset.ActiveItems = 600
		c.Dataset.OldItems = 1300
		c.Dataset.BufferPages = 500
		l := c.Load
		l.RampSeconds = 5
		switch l.Kind {
		case vwchar.LoadDiurnal:
			l.PeriodSeconds = 20
		case vwchar.LoadSpike:
			l.SpikeAt, l.SpikeRamp, l.SpikeHold = 10, 4, 10
		case vwchar.LoadBursty:
			l.BaseDwell, l.BurstDwell = 10, 4
		}
	}
	scenarios := append(vwchar.LoadScenarios(), vwchar.LoadNamedSpec{
		Name:    "trace",
		Summary: "inline trace replay",
		Spec: vwchar.LoadSpec{
			Kind:        vwchar.LoadTrace,
			TracePoints: []vwchar.TracePoint{{TimeSeconds: 0, Rate: 1}, {TimeSeconds: 15, Rate: 4}, {TimeSeconds: 35, Rate: 2}},
			SessionMean: 6,
		},
	})
	return vwchar.SweepSpec{
		Points:       vwchar.SweepLoadGrid(vwchar.Envs(), vwchar.MixBrowsing, scenarios, mutate),
		Replications: 1,
		RootSeed:     42,
		Workers:      workers,
	}
}

// TestLoadScenarioSweepByteIdenticalAcrossWorkers extends the
// determinism contract to the open-loop subsystem: every workload
// scenario — all five arrival families, both deployments — must produce
// byte-identical aggregated output at workers=1 and workers=8 for a
// fixed seed, exactly like the paper's closed-loop grid.
func TestLoadScenarioSweepByteIdenticalAcrossWorkers(t *testing.T) {
	table := func(workers int) ([]byte, *vwchar.SweepResult) {
		sr, err := vwchar.Sweep(loadScenarioSweepSpec(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sr.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), sr
	}
	seq, sr := table(1)
	par, _ := table(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("open-loop sweep output differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
	// Every scenario actually ran sessions (the sweep is not vacuous).
	for i := range sr.Points {
		pr := &sr.Points[i]
		if pr.Metric("sessions_started").Mean <= 0 {
			t.Fatalf("%s started no sessions", pr.Point.Name)
		}
	}
}
