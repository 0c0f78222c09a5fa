package experiment

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"vwchar/internal/timeseries"
)

// reportBytes runs cfg and renders everything the run reports: its
// resource and request series as CSV tables, then every scalar's bits.
func reportBytes(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, set := range []*timeseries.Set{res.Resources, res.Telemetry} {
		if set == nil {
			continue
		}
		if err := timeseries.WriteTableCSV(&buf, set.All()...); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range res.Scalars {
		fmt.Fprintf(&buf, "%s %016x\n", s.Name, math.Float64bits(s.Value))
	}
	return buf.Bytes()
}

// TestRecycledDatasetReportsMatch runs a config that owns its dataset,
// then another one on a different env, seed and scale, then the first
// again. The runs before it closed their datasets, so the third run
// populates into recycled pages, and it must report exactly what the
// first did.
func TestRecycledDatasetReportsMatch(t *testing.T) {
	a := tinyAssemblyConfig(Virtualized)
	a.DatasetSeed = 0
	b := tinyAssemblyConfig(Physical)
	b.DatasetSeed = 0
	b.Seed = 23
	b.Dataset.Users *= 2
	b.Dataset.OldItems *= 2

	first := reportBytes(t, a)
	if bytes.Equal(first, reportBytes(t, b)) {
		t.Fatal("configs A and B report the same bytes; the test needs two different runs")
	}
	if third := reportBytes(t, a); !bytes.Equal(first, third) {
		t.Fatalf("config A reported %d bytes after B and %d before, and they differ", len(third), len(first))
	}
}
