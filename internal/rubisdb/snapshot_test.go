package rubisdb

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// buildPopulated creates an engine with one indexed table, bulk-loads
// rows of it, and checkpoints — the same shape dataset population
// leaves behind. The small pool forces evictions so runtime ops exercise
// the miss/write-back paths over shared pages.
func buildPopulated(t testing.TB, rows, bufferPages int) (*Engine, *Table) {
	t.Helper()
	e := NewEngine(bufferPages, DefaultCostModel())
	tb, err := e.CreateTable("users", usersSchema(), "id", "region")
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Row, 0, rows)
	for i := int64(0); i < int64(rows); i++ {
		batch = append(batch, Row{i, fmt.Sprintf("user%06d", i), i % 50, int64(0)})
	}
	if err := bulkInsert(tb, batch); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return e, tb
}

// writeHeavyMix runs a deterministic insert/update/delete/read mix
// against the view's table, offsetting primary keys by base so two
// views' write sets are disjoint and their cross-visibility can be
// asserted.
func writeHeavyMix(t testing.TB, tb *Table, base int64, ops int, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	region := mustIndex(t, tb, "region")
	next := base
	for i := 0; i < ops; i++ {
		switch r.Intn(4) {
		case 0, 1:
			if _, err := insertRow(tb, Row{next, "view-user", next % 50, int64(0)}); err != nil {
				t.Fatal(err)
			}
			next++
		case 2:
			if err := tb.UpdateNumeric(int64(r.Intn(1000)), NumericUpdate{Col: 3, Int: int64(i)}); err != nil {
				t.Fatal(err)
			}
		case 3:
			if _, err := region.Read(int64(r.Intn(50)), 8, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestConcurrentViewsDoNotPerturbGoldenOrEachOther is the COW isolation
// property: two views over one golden run write-heavy mixes
// concurrently; the sealed pages stay byte-identical and each view sees
// only its own writes. Run with -race, this also proves golden reads
// are safely shared across goroutines.
func TestConcurrentViewsDoNotPerturbGoldenOrEachOther(t *testing.T) {
	eng, _ := buildPopulated(t, 5000, 64)
	g, err := eng.Seal()
	if err != nil {
		t.Fatal(err)
	}
	before := g.Digest()

	views := []*Engine{g.NewView(), g.NewView()}
	bases := []int64{1 << 20, 2 << 20}
	var wg sync.WaitGroup
	for i, v := range views {
		tb := tableOf(t, v, "users")
		wg.Add(1)
		go func(tb *Table, base int64, seed int64) {
			defer wg.Done()
			writeHeavyMix(t, tb, base, 4000, seed)
		}(tb, bases[i], int64(100+i))
	}
	wg.Wait()

	if g.Digest() != before {
		t.Fatal("golden pages changed under concurrent copy-on-write views")
	}
	for i, v := range views {
		tb := tableOf(t, v, "users")
		if own := readRow(t, tb, bases[i]); own == nil {
			t.Fatalf("view %d lost its own insert", i)
		}
		if other := readRow(t, tb, bases[1-i]); other != nil {
			t.Fatalf("view %d sees view %d's insert: cross-replication bleed", i, 1-i)
		}
	}
}

// TestViewMatchesFreshEngine is byte-equivalence: the same runtime op
// sequence on a freshly populated engine and on a COW view of an
// identically populated golden must produce identical meters (WAL
// bytes included) and receipts — the property that keeps the sweep's golden
// SHA-256 unchanged with snapshots enabled.
func TestViewMatchesFreshEngine(t *testing.T) {
	fresh, freshTb := buildPopulated(t, 5000, 64)
	sealedSrc, _ := buildPopulated(t, 5000, 64)
	g, err := sealedSrc.Seal()
	if err != nil {
		t.Fatal(err)
	}
	view := g.NewView()
	viewTb := tableOf(t, view, "users")

	if fresh.Meter() != view.Meter() {
		t.Fatalf("meters differ before any runtime op:\nfresh %+v\nview  %+v", fresh.Meter(), view.Meter())
	}
	writeHeavyMix(t, freshTb, 1<<20, 4000, 7)
	writeHeavyMix(t, viewTb, 1<<20, 4000, 7)
	if fresh.Meter() != view.Meter() {
		t.Fatalf("meters diverged:\nfresh %+v\nview  %+v", fresh.Meter(), view.Meter())
	}
	if f, v := fresh.Meter().WALBytes, view.Meter().WALBytes; f != v || v <= g.meter.WALBytes {
		t.Fatalf("WAL bytes: fresh %v view %v, sealed %v; want equal and grown", f, v, g.meter.WALBytes)
	}
	fr := readRow(t, freshTb, 1<<20+3)
	vr := readRow(t, viewTb, 1<<20+3)
	if fmt.Sprint(fr) != fmt.Sprint(vr) {
		t.Fatalf("row diverged: fresh %v view %v", fr, vr)
	}
}

// TestRearmRewindsView: after arbitrary writes, Rearm must restore the
// exact sealed state, so a recycled view replays a replication
// identically to a fresh one.
func TestRearmRewindsView(t *testing.T) {
	eng, _ := buildPopulated(t, 5000, 64)
	g, err := eng.Seal()
	if err != nil {
		t.Fatal(err)
	}
	v := g.NewView()
	sealedMeter := v.Meter()

	runOnce := func() Meter {
		writeHeavyMix(t, tableOf(t, v, "users"), 1<<20, 3000, 11)
		return v.Meter()
	}
	first := runOnce()
	g.Rearm(v)
	if v.Meter() != sealedMeter {
		t.Fatalf("Rearm did not restore the sealed meter: %+v vs %+v", v.Meter(), sealedMeter)
	}
	if row := readRow(t, tableOf(t, v, "users"), 1<<20); row != nil {
		t.Fatalf("Rearm leaked a private write (row=%v)", row)
	}
	// The probe above metered a couple of page hits; rearm again so the
	// second run replays from the exact sealed state.
	g.Rearm(v)
	second := runOnce()
	if first != second {
		t.Fatalf("recycled view diverged from its first run:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// TestSealedStoreRejectsWrites: the golden store must panic rather than
// let a stray write-back corrupt every attached view.
func TestSealedStoreRejectsWrites(t *testing.T) {
	eng, _ := buildPopulated(t, 200, 64)
	g, err := eng.Seal()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WriteBack to sealed store did not panic")
		}
	}()
	_ = g.store.WriteBack(PageID{File: 16, PageNo: 0})
}

// TestSealRequiresMemStore: views cannot be re-sealed (their private
// overlay is not a dataset).
func TestSealRequiresMemStore(t *testing.T) {
	eng, _ := buildPopulated(t, 200, 64)
	g, err := eng.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.NewView().Seal(); err == nil {
		t.Fatal("Seal of a COW view should fail")
	}
}

// TestRearmLeavesNoStaleDirectoryEntries: Rearm recycles every frame a
// run left resident, so each of their directory slots must be emptied
// first, or a later Get would hit a frame now holding another page.
// After a write-heavy run the directory must hold exactly the golden
// residents, and a page the Rearm evicted must come back as a metered
// miss served zero-copy from the golden. The pool holds a third of the
// golden's pages, so the run evicts and the golden residents are only a
// part of the dataset.
func TestRearmLeavesNoStaleDirectoryEntries(t *testing.T) {
	eng, _ := buildPopulated(t, 5000, 16)
	g, err := eng.Seal()
	if err != nil {
		t.Fatal(err)
	}
	v := g.NewView()
	writeHeavyMix(t, tableOf(t, v, "users"), 1<<20, 3000, 13)
	if err := v.pool.check(); err != nil {
		t.Fatalf("after run: %v", err)
	}
	golden := make(map[PageID]bool, len(g.residents))
	for _, id := range g.residents {
		golden[id] = true
	}
	// A golden page the run made resident that the sealed pool did not
	// hold: Rearm must drop it.
	var dropped PageID
	found := false
	for f := v.pool.lru.next; f != &v.pool.lru && !found; f = f.next {
		if !golden[f.id] && g.store.pages.at(f.id) != nil {
			dropped, found = f.id, true
		}
	}
	if !found {
		t.Fatal("run left no non-resident golden page in the pool; the test needs a different mix")
	}

	g.Rearm(v)
	if err := v.pool.check(); err != nil {
		t.Fatalf("after Rearm: %v", err)
	}
	i := 0
	for f := v.pool.lru.next; f != &v.pool.lru; f = f.next {
		if f.id != g.residents[i] {
			t.Fatalf("LRU position %d holds %v, sealed pool had %v", i, f.id, g.residents[i])
		}
		i++
	}
	if v.pool.resident != len(g.residents) {
		t.Fatalf("%d resident after Rearm, sealed pool had %d", v.pool.resident, len(g.residents))
	}
	cow := v.store.(*cowStore)
	for file := range g.store.pages.files {
		f := uint32(file)
		if got, want := cow.PageCount(f), g.store.pages.length(f); got != want {
			t.Fatalf("file %d: PageCount %d after Rearm, golden has %d", f, got, want)
		}
	}

	before := v.Meter()
	fr, err := v.pool.Get(dropped)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Unpin(false)
	after := v.Meter()
	if after.PageMisses != before.PageMisses+1 || after.PageHits != before.PageHits {
		t.Fatalf("Get(%v) after Rearm: hits %d→%d, misses %d→%d; want one miss",
			dropped, before.PageHits, after.PageHits, before.PageMisses, after.PageMisses)
	}
	if fr.ID() != dropped || !fr.shared || &fr.Page[0] != &g.store.pages.at(dropped)[0] {
		t.Fatalf("Get(%v) returned frame of %v (shared=%v), not the golden page", dropped, fr.ID(), fr.shared)
	}
}

// TestStoreWriteRejectsUnallocatedPages: both stores refuse a write to a
// page id no Allocate handed out, instead of creating a page past the
// file's allocated page count.
func TestStoreWriteRejectsUnallocatedPages(t *testing.T) {
	ms := NewMemStore()
	if err := ms.WriteBack(PageID{File: 1, PageNo: 0}); err == nil {
		t.Fatal("MemStore accepted a write to an empty file")
	}
	id, _ := ms.Allocate(1)
	if err := ms.WriteBack(id); err != nil {
		t.Fatalf("MemStore write of allocated page: %v", err)
	}
	for _, bad := range []PageID{{File: 1, PageNo: 1}, {File: 2, PageNo: 0}, {File: 1 << 20, PageNo: 0}} {
		if err := ms.WriteBack(bad); err == nil {
			t.Fatalf("MemStore accepted a write to unallocated page %v", bad)
		}
	}
	if ms.pages.length(1) != 1 || ms.pages.length(2) != 0 {
		t.Fatalf("rejected writes changed PageCount: file 1 = %d, file 2 = %d", ms.pages.length(1), ms.pages.length(2))
	}

	eng, tb := buildPopulated(t, 200, 64)
	g, err := eng.Seal()
	if err != nil {
		t.Fatal(err)
	}
	cow := g.NewView().store.(*cowStore)
	file := tb.id
	n := cow.PageCount(file)
	if err := cow.WriteBack(PageID{File: file, PageNo: n - 1}); err != nil {
		t.Fatalf("view write of a golden page: %v", err)
	}
	past := PageID{File: file, PageNo: n}
	if err := cow.WriteBack(past); err == nil {
		t.Fatalf("view accepted a write to unallocated page %v", past)
	}
	if cow.PageCount(file) != n {
		t.Fatalf("rejected write changed PageCount: %d, want %d", cow.PageCount(file), n)
	}
	if got, _ := cow.Allocate(file); got != past {
		t.Fatalf("Allocate = %v, want %v", got, past)
	}
	if err := cow.WriteBack(past); err != nil {
		t.Fatalf("view write of a privately allocated page: %v", err)
	}
}
