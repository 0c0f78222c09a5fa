package rubis

import (
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"vwchar/internal/rng"
)

// TestViewsNeverTouchGolden is the copy-on-write safety property under
// real traffic: bidding-mix steps on a view whose buffer pool is a small
// fraction of the dataset, so dirty private frames are evicted and
// missed back in, across several Release/Attach (Rearm) cycles. The
// sealed golden pages must stay byte-identical, every resident frame
// must be its store's own buffer (a private page for private frames, the
// golden page for shared ones), and no pin may leak.
func TestViewsNeverTouchGolden(t *testing.T) {
	cfg := smallDataset()
	cfg.BufferPages = 24
	snap, err := NewSnapshot(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	golden := snap.golden.Digest()
	mix := BiddingMix()
	params := DefaultCostParams()
	r := rng.NewSource(11).Stream("cow")
	var res Result
	for cycle := 0; cycle < 4; cycle++ {
		app := snap.Attach()
		start := app.Engine.Meter()
		sess := Session{UserID: 5, ItemID: 10, CategoryID: 2, RegionID: 3, ToUserID: 7}
		cur := mix.StartState()
		for i := 0; i < 2000; i++ {
			cur = mix.NextInteraction(cur, r)
			if err := app.ExecuteInto(&res, cur, &sess, r, params); err != nil {
				t.Fatalf("cycle %d step %d (%s): %v", cycle, i, cur, err)
			}
		}
		work := app.Engine.Meter().Sub(start)
		if work.RowsWritten == 0 || work.PagesWritten == 0 {
			t.Fatalf("cycle %d: %d rows written, %d dirty pages written back; the test needs evicted writes",
				cycle, work.RowsWritten, work.PagesWritten)
		}
		if err := app.Engine.Check(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if snap.golden.Digest() != golden {
			t.Fatalf("cycle %d: the view changed the sealed golden pages", cycle)
		}
		app.Release()
	}
}

// TestClosedSnapshotRefusesViews: an owned snapshot closes only once
// every view is released, and attaches nothing afterwards.
func TestClosedSnapshotRefusesViews(t *testing.T) {
	snap, err := NewSnapshot(smallDataset(), 7)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if r, _ := recover().(string); !strings.Contains(r, want) {
				t.Fatalf("%s: panic %q, want one containing %q", what, r, want)
			}
		}()
		f()
	}
	a, b := snap.Attach(), snap.Attach()
	a.Release()
	mustPanic("Close with a view attached", "1 views still attached", snap.Close)
	b.Release()
	snap.Close()
	mustPanic("Attach after Close", "Attach on a closed snapshot", func() { snap.Attach() })
}

// TestOwnedSnapshotCycleAllocs bounds BenchmarkOwnedSnapshotCycle's
// path at 100 allocations per cycle in the steady state, once a few
// cycles have stocked rubisdb's pools: a cycle then allocates only the
// engines' and tables' own structs, never per page or per frame (a
// cycle made ~2,400 allocations while every frame was its own). The
// pools keep their stock per P and lose it to a collection, so the
// warm-up and the count both run on one P with the collector off. A
// build whose sync.Pool drops items at random (the race detector's)
// cannot stock them, and skips the count.
func TestOwnedSnapshotCycleAllocs(t *testing.T) {
	const warm, cycles, perCycle = 3, 10, 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if poolDropsItems() {
		t.Skip("sync.Pool drops items at random in this build, so no pool stays stocked")
	}
	cfg := DefaultDataset()
	seed := uint64(0)
	for range warm {
		seed++
		ownedSnapshotCycle(t, cfg, seed)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range cycles {
		seed++
		ownedSnapshotCycle(t, cfg, seed)
	}
	runtime.ReadMemStats(&after)
	n := after.Mallocs - before.Mallocs
	if n > cycles*perCycle {
		t.Fatalf("%d allocations in %d owned-snapshot cycles, want at most %d per cycle", n, cycles, perCycle)
	}
	t.Logf("%d allocations per owned-snapshot cycle", n/cycles)
}

// poolDropsItems reports whether a sync.Pool kept on one P with the
// collector off still loses what it is handed.
func poolDropsItems() bool {
	const n = 64
	var p sync.Pool
	for range n {
		p.Put(new(int))
	}
	for i := 0; i < n; i++ {
		if p.Get() == nil {
			return true
		}
	}
	return false
}
