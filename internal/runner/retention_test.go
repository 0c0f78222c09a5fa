package runner

import (
	"runtime"
	"testing"

	"vwchar/internal/experiment"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
)

// liveHeap reports the bytes of reachable heap objects once two
// collections have run: the first makes unreachable objects garbage,
// the second also drops whatever a sync.Pool's victim cache held.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSweepDoesNotRetainPerReplicationDatasets pins that a sweep with
// the default per-replication datasets leaves none of them behind. No
// other job can ever attach a replication's dataset, so a golden still
// reachable once the sweep is over is memory held for nothing. The
// sweep populates four default-scale datasets (~17 MB of pages each),
// as many as the shared snapshot cache holds, and the test holds every
// Result; the heap may grow by less than one dataset's pages.
func TestSweepDoesNotRetainPerReplicationDatasets(t *testing.T) {
	points := make([]Point, 0, 2)
	for _, env := range []experiment.Env{experiment.Virtualized, experiment.Physical} {
		cfg := experiment.DefaultConfig(env, experiment.MixBrowsing)
		cfg.Clients = 10
		cfg.Duration = 30 * sim.Second
		cfg.Dataset = rubis.DefaultDataset()
		points = append(points, Point{Name: string(env), Config: cfg})
	}
	before := liveHeap()
	res, err := Run(SweepSpec{Points: points, Replications: 2, RootSeed: 3001, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	const bound = 8 << 20 // half of one default-scale dataset's pages
	if after > before && after-before > bound {
		t.Fatalf("live heap grew by %.1f MB across the sweep; per-replication datasets are still reachable",
			float64(after-before)/(1<<20))
	}
	runtime.KeepAlive(res)
}
