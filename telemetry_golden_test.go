package vwchar_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"vwchar"
)

// telemetryGoldenSHA256 pins the bytes of every replication's telemetry
// CSV (WriteTelemetryCSV, the table rubisim -csv and cmd/figures write)
// over three feature sweeps. The golden table hash covers only the
// scalar WriteTable output, and the feature sweeps only compare worker
// counts against each other, so without this a change to how series
// are registered or rotated could reorder, rename or drop columns
// silently. Together the three sweeps materialize every series the
// recorder can emit (see telemetryGoldenColumns).
//
// If a change intentionally moves model behaviour, regenerate with
//
//	go test -run TestTelemetryCSVMatchesGoldenHash -v
//
// and update the constants alongside an explanation of what moved.
var telemetryGoldenSHA256 = map[string]string{
	"load-scenario": "84290c1629be8ad6a89a8ffca68c2b0e0d67632edcafbbfd5d850f272aa0f1b5",
	"cascade":       "918173a3bd44f8641f4976c639d69dce2a65c70ca7d045ea9b430e1cbce430b9",
	"cache":         "efaeb273c449a6dcb85ac2e4aa8a74b8841a3687298ab279def78d1cbe7915e7",
}

// telemetryGoldenColumns is the CSV column contract: every window
// series, in emission order. The union of the three sweeps must cover
// it.
var telemetryGoldenColumns = []string{
	"latency_mean_ms", "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
	"throughput_rps", "inflight", "sessions_started", "sessions_ended",
	"latency_read_p95_ms", "latency_rw_p95_ms", "abandoned_sessions",
	"replicas",
	"timeouts", "sheds", "failures", "retries", "availability",
	"degraded", "brownout_level", "hazard_rate",
	"cache_hit_ratio", "cache_stampedes",
	"queue_depth", "queue_lag_ms",
}

// TestTelemetryCSVMatchesGoldenHash hashes each replication's telemetry
// CSV, prefixed by the point name and rep index, and checks that every
// series name shows up somewhere and that each replication lists its
// series in contract order.
func TestTelemetryCSVMatchesGoldenHash(t *testing.T) {
	specs := []struct {
		name string
		spec vwchar.SweepSpec
	}{
		{"load-scenario", loadScenarioSweepSpec(4)},
		{"cascade", cascadeSweepSpec(4)},
		{"cache", cacheSweepSpec(4)},
	}
	rank := make(map[string]int, len(telemetryGoldenColumns))
	for i, name := range telemetryGoldenColumns {
		rank[name] = i
	}
	seen := make(map[string]bool)
	for _, s := range specs {
		sr, err := vwchar.Sweep(s.spec)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for i := range sr.Points {
			pr := &sr.Points[i]
			for rep, r := range pr.Reps {
				fmt.Fprintf(h, "# %s rep %d\n", pr.Point.Name, rep)
				if err := vwchar.WriteTelemetryCSV(h, r); err != nil {
					t.Fatal(err)
				}
				last := -1
				for _, ser := range r.Telemetry.All() {
					rk, ok := rank[ser.Name]
					if !ok {
						t.Fatalf("%s/%s rep %d: unknown series %q", s.name, pr.Point.Name, rep, ser.Name)
					}
					if rk <= last {
						t.Fatalf("%s/%s rep %d: series %q out of contract order", s.name, pr.Point.Name, rep, ser.Name)
					}
					last = rk
					seen[ser.Name] = true
				}
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := telemetryGoldenSHA256[s.name]; got != want {
			t.Errorf("%s: telemetry CSV hash changed:\n  got  %s\n  want %s", s.name, got, want)
		}
	}
	for _, name := range telemetryGoldenColumns {
		if !seen[name] {
			t.Errorf("no sweep materialized series %q", name)
		}
	}
}
