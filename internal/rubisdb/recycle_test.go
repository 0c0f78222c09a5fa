package rubisdb

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
)

// closableGolden seals a populated engine whose store spans more than
// eight slabs (the extra pages fill a file no table uses), and attaches
// one view that has written enough to own private pages.
func closableGolden(t *testing.T) (*Golden, *Engine) {
	t.Helper()
	eng, _ := buildPopulated(t, 5000, 64)
	ms := eng.store.(*MemStore)
	for range 8 * pagesPerSlab {
		ms.Allocate(99)
	}
	g, err := eng.Seal()
	if err != nil {
		t.Fatal(err)
	}
	v := g.NewView()
	writeHeavyMix(t, tableOf(t, v, "users"), 1<<20, 500, 3)
	if len(v.store.(*cowStore).privIDs) == 0 {
		t.Fatal("the view owns no private pages")
	}
	return g, v
}

// mustPanic fails t unless f panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// TestClosedGoldenRecyclesZeroedPages scribbles over every slab a
// golden and its view carved pages from, closes the golden, and then
// allocates as many pages in a new store: each must read zero, since
// Allocate promises zeroed pages, and the new store must have drawn at
// least one of the scribbled slabs (the pool may drop a few).
func TestClosedGoldenRecyclesZeroedPages(t *testing.T) {
	g, v := closableGolden(t)
	scribbled := map[*slab]bool{}
	for _, sl := range slices.Concat(g.store.slab.slabs, v.store.(*cowStore).slab.slabs) {
		for i := range sl {
			sl[i] = 0xA5
		}
		scribbled[sl] = true
	}
	g.Close()

	fresh := NewMemStore()
	zero := make(Page, PageSize)
	for i := range len(scribbled) * pagesPerSlab {
		if _, p := fresh.Allocate(0); !bytes.Equal(p, zero) {
			t.Fatalf("page %d of a new store carries stale bytes", i)
		}
	}
	recycled := 0
	for _, sl := range fresh.slab.slabs {
		if scribbled[sl] {
			recycled++
		}
	}
	if recycled == 0 {
		t.Fatalf("the new store drew none of the %d closed slabs", len(scribbled))
	}
}

// TestClosedGoldenFailsLoudly: once closed, a golden serves nothing.
// NewView, Rearm, Digest and a view's page allocation panic, and a
// view's page read, which would otherwise alias recycled bytes, is an
// error. Close itself refuses a view holding a pinned page.
func TestClosedGoldenFailsLoudly(t *testing.T) {
	g, v := closableGolden(t)
	pinned, err := v.pool.Get(g.residents[0])
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "still pinned", g.Close)
	pinned.Unpin(false)
	g.Close()
	g.Close() // a second Close does nothing

	mustPanic(t, "NewView on a closed golden", func() { g.NewView() })
	mustPanic(t, "Rearm on a closed golden", func() { g.Rearm(v) })
	mustPanic(t, "Digest on a closed golden", func() { g.Digest() })
	mustPanic(t, "closed golden", func() { v.store.Allocate(0) })
	if _, _, err := v.store.Page(PageID{}); err == nil || !strings.Contains(err.Error(), "closed golden") {
		t.Fatalf("view page read after Close: err = %v, want a closed-golden error", err)
	}
	if _, err := tableOf(t, v, "users").ReadByPK(1, func(Tuple) {}); err == nil {
		t.Fatal("a view's table read after Close succeeded")
	}
}

// TestConcurrentViewsThenClose builds views of one golden from several
// goroutines at once, as sweep workers attaching a shared snapshot do,
// and then closes the golden: Close must reach every one of them.
func TestConcurrentViewsThenClose(t *testing.T) {
	g, _ := closableGolden(t)
	views := make([]*Engine, 4)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[i] = g.NewView()
		}()
	}
	wg.Wait()
	g.Close()
	for i, v := range views {
		if _, err := tableOf(t, v, "users").ReadByPK(1, func(Tuple) {}); err == nil {
			t.Fatalf("view %d read a page after Close", i)
		}
	}
}

// BenchmarkScratchRecycle is the steady state of dataset population's
// scratch once closed goldens feed it: each op carves a full slab of
// pages and hands it back, and draws, fills and returns an index entry
// list. Both come from their pools, so an op allocates nothing.
func BenchmarkScratchRecycle(b *testing.B) {
	const entries = 4096
	var s pageSlab
	cycle := func() {
		for range pagesPerSlab {
			s.take()[0] = 1
		}
		s.release()
		l := getEntries(entries)
		for i := range entries {
			*l = append(*l, Entry{Key: int64(i), Value: uint64(i)})
		}
		putEntries(l)
	}
	cycle() // fill both pools
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		cycle()
	}
}

// TestFramesCarveWithinCapacity pins how a pool carves its frames:
// full chunks while a chunk's worth of capacity is uncarved, then one
// chunk of exactly the rest, so a pool that fills and keeps evicting
// holds no more frames than its capacity. Released chunks come back
// zeroed, for the next pool to carve from.
func TestFramesCarveWithinCapacity(t *testing.T) {
	for _, capacity := range []int{1, 4, framesPerChunk, 2*framesPerChunk + 44} {
		pool := NewBufferPool(NewMemStore(), capacity, &Meter{})
		for i := 0; i < 2*capacity+10; i++ {
			f, err := pool.NewPage(0)
			if err != nil {
				t.Fatal(err)
			}
			f.Unpin(false)
		}
		if pool.carved != capacity || len(pool.chunks) != capacity/framesPerChunk || len(pool.spare) != 0 {
			t.Fatalf("capacity %d: carved %d frames (%d full chunks, %d spare), want exactly the capacity",
				capacity, pool.carved, len(pool.chunks), len(pool.spare))
		}
		if err := pool.check(); err != nil {
			t.Fatal(err)
		}
		chunks := slices.Clone(pool.chunks)
		pool.release()
		if pool.resident != 0 || pool.freeFrame != nil || pool.lru.next != &pool.lru || pool.frames.files != nil {
			t.Fatalf("capacity %d: released pool still holds frames", capacity)
		}
		for _, c := range chunks {
			for i := range c {
				if f := &c[i]; f.Page != nil || f.id != (PageID{}) || f.dirty || f.shared || f.pins != 0 || f.prev != nil || f.next != nil {
					t.Fatalf("capacity %d: frame %d of a released chunk is not zeroed", capacity, i)
				}
			}
		}
	}
}
