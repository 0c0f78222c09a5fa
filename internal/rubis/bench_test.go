package rubis

import (
	"testing"

	"vwchar/internal/rng"
)

// BenchmarkBrowsingStep measures one emulated-browser step of the
// read-only browsing mix: a Markov draw of the next interaction plus
// its execution on an attached snapshot view. The Result and Session
// are reused across steps, as the workload driver reuses them, so the
// steady state allocates nothing.
func BenchmarkBrowsingStep(b *testing.B) { benchmarkMixStep(b, BrowsingMix()) }

// BenchmarkBiddingStep is BenchmarkBrowsingStep on the bidding mix,
// whose steps include the five runtime writes: typed row inserts into
// the view's tables and the bid's counter update.
func BenchmarkBiddingStep(b *testing.B) { benchmarkMixStep(b, BiddingMix()) }

func benchmarkMixStep(b *testing.B, mix *Mix) {
	snap, err := NewSnapshot(smallDataset(), 7)
	if err != nil {
		b.Fatal(err)
	}
	app := snap.Attach()
	defer app.Release()
	r := rng.NewSource(9).Stream("step")
	params := DefaultCostParams()
	sess := Session{UserID: 5, ItemID: 10, CategoryID: 2, RegionID: 3, ToUserID: 7}
	var res Result
	cur := mix.StartState()
	step := func() {
		cur = mix.NextInteraction(cur, r)
		if err := app.ExecuteInto(&res, cur, &sess, r, params); err != nil {
			b.Fatalf("%s: %v", cur, err)
		}
	}
	// Warm up: grow res.Queries, the tables' RID lists and row buffers.
	for i := 0; i < 1000; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkNewSnapshot measures dataset population at the default
// scale: schema creation, every table's bulk load, the warm checkpoint
// and the seal into a golden snapshot. It is the per-replication setup
// cost of a sweep that gives each replication its own dataset.
func BenchmarkNewSnapshot(b *testing.B) {
	cfg := DefaultDataset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSnapshot(cfg, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOwnedSnapshotCycle measures the life of a dataset a run owns:
// NewSnapshot at the default scale, Attach, Release and Close. Close
// hands the pages, frames and page directories and, earlier, the bulk
// load's scratch back to rubisdb's pools, so after the first cycle
// population reuses them instead of allocating what
// BenchmarkNewSnapshot reports. TestOwnedSnapshotCycleAllocs bounds it.
func BenchmarkOwnedSnapshotCycle(b *testing.B) {
	cfg := DefaultDataset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ownedSnapshotCycle(b, cfg, uint64(i)+1)
	}
}

// ownedSnapshotCycle populates, attaches, releases and closes one
// dataset a run owns.
func ownedSnapshotCycle(tb testing.TB, cfg DatasetConfig, seed uint64) {
	snap, err := NewSnapshot(cfg, seed)
	if err != nil {
		tb.Fatal(err)
	}
	snap.Attach().Release()
	snap.Close()
}
