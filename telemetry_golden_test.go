package vwchar_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"vwchar"
)

// seriesGoldenSHA256 pins the bytes of every aggregated window-series
// CSV (PointResult.WriteSeriesCSV) of three feature sweeps. The golden
// table hash covers only the scalar WriteTable output, and the feature
// sweeps only compare worker counts against each other, so without
// this a change to how series are registered or rotated could reorder,
// rename or drop columns silently. Together the three sweeps
// materialize every series the recorder can emit (see
// seriesGoldenColumns).
//
// If a PR intentionally changes model behaviour, regenerate with
//
//	go test -run TestWindowSeriesMatchGoldenHash -v
//
// and update the constants alongside an explanation of what moved.
var seriesGoldenSHA256 = map[string]string{
	"load-scenario": "1c730eeab8a34879dffc09aa268321cbb81931da402c9efb11e9d36f6366eb61",
	"cascade":       "c4bdb2fbcb4d5514648f62c8b6dcee791403f97c76f61d611d3ab4337f310b2b",
	"cache":         "94eee039dd01caf26c36780863d12fc364f2639f068be2b7d50e5626799cfcee",
}

// seriesGoldenColumns is the CSV column contract: every window series,
// in emission order. The union of the three sweeps must cover it.
var seriesGoldenColumns = []string{
	"latency_mean_ms", "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
	"throughput_rps", "inflight", "sessions_started", "sessions_ended",
	"latency_read_p95_ms", "latency_rw_p95_ms", "abandoned_sessions",
	"replicas",
	"timeouts", "sheds", "failures", "retries", "availability",
	"degraded", "brownout_level", "hazard_rate",
	"cache_hit_ratio", "cache_stampedes",
	"queue_depth", "queue_lag_ms",
}

// TestWindowSeriesMatchGoldenHash hashes each point's series CSV,
// prefixed by the point name, and checks that every series name shows
// up somewhere and that each point lists its series in contract order.
func TestWindowSeriesMatchGoldenHash(t *testing.T) {
	specs := []struct {
		name string
		spec vwchar.SweepSpec
	}{
		{"load-scenario", loadScenarioSweepSpec(4)},
		{"cascade", cascadeSweepSpec(4)},
		{"cache", cacheSweepSpec(4)},
	}
	rank := make(map[string]int, len(seriesGoldenColumns))
	for i, name := range seriesGoldenColumns {
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
			fmt.Fprintf(h, "# %s\n", pr.Point.Name)
			if err := pr.WriteSeriesCSV(h); err != nil {
				t.Fatal(err)
			}
			last := -1
			for _, sa := range pr.Series {
				r, ok := rank[sa.Name]
				if !ok {
					t.Fatalf("%s/%s: unknown series %q", s.name, pr.Point.Name, sa.Name)
				}
				if r <= last {
					t.Fatalf("%s/%s: series %q out of contract order", s.name, pr.Point.Name, sa.Name)
				}
				last = r
				seen[sa.Name] = true
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := seriesGoldenSHA256[s.name]; got != want {
			t.Errorf("%s: series CSV hash changed:\n  got  %s\n  want %s", s.name, got, want)
		}
	}
	for _, name := range seriesGoldenColumns {
		if !seen[name] {
			t.Errorf("no sweep materialized series %q", name)
		}
	}
}
