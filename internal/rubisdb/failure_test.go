package rubisdb

import (
	"errors"
	"fmt"
	"testing"
)

// faultStore wraps MemStore and fails operations on command, exercising
// the error paths that a real device would hit.
type faultStore struct {
	*MemStore
	failReads  bool
	failWrites bool
	reads      int
	writes     int
}

var errInjected = errors.New("injected I/O failure")

func (f *faultStore) Page(id PageID) (Page, bool, error) {
	f.reads++
	if f.failReads {
		return nil, false, fmt.Errorf("read %v: %w", id, errInjected)
	}
	return f.MemStore.Page(id)
}

func (f *faultStore) WriteBack(id PageID) error {
	f.writes++
	if f.failWrites {
		return fmt.Errorf("write %v: %w", id, errInjected)
	}
	return f.MemStore.WriteBack(id)
}

func TestBufferPoolSurfacesReadFailures(t *testing.T) {
	fs := &faultStore{MemStore: NewMemStore()}
	pool := NewBufferPool(fs, 4, &Meter{})
	f, err := pool.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	f.Unpin(true)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Evict it by filling the pool, then fail the re-read.
	for i := 0; i < 4; i++ {
		nf, err := pool.NewPage(1)
		if err != nil {
			t.Fatal(err)
		}
		nf.Unpin(false)
	}
	fs.failReads = true
	if _, err := pool.Get(id); !errors.Is(err, errInjected) {
		t.Fatalf("expected injected failure, got %v", err)
	}
}

func TestBufferPoolSurfacesWriteFailuresOnEviction(t *testing.T) {
	fs := &faultStore{MemStore: NewMemStore()}
	pool := NewBufferPool(fs, 1, &Meter{})
	f, err := pool.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	f.Unpin(true) // dirty
	fs.failWrites = true
	// Allocating a second page forces eviction of the dirty page.
	if _, err := pool.NewPage(1); !errors.Is(err, errInjected) {
		t.Fatalf("expected injected failure, got %v", err)
	}
}

func TestFlushLimitSurfacesWriteFailures(t *testing.T) {
	fs := &faultStore{MemStore: NewMemStore()}
	pool := NewBufferPool(fs, 4, &Meter{})
	f, err := pool.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	f.Unpin(true)
	fs.failWrites = true
	if _, err := pool.FlushLimit(10); !errors.Is(err, errInjected) {
		t.Fatalf("expected injected failure, got %v", err)
	}
}

func TestBTreePropagatesStorageFailures(t *testing.T) {
	fs := &faultStore{MemStore: NewMemStore()}
	pool := NewBufferPool(fs, 8, &Meter{})
	tree, err := newBTree(pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fill beyond the pool so lookups must re-read evicted pages.
	for i := int64(0); i < 5000; i++ {
		if err := tree.Insert(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	fs.failReads = true
	if _, err := tree.search(1); !errors.Is(err, errInjected) {
		t.Fatalf("Search should surface storage failure, got %v", err)
	}
	if err := tree.ScanRange(0, 100, func(int64, uint64) bool { return true }); !errors.Is(err, errInjected) {
		t.Fatalf("ScanRange should surface storage failure, got %v", err)
	}
}

func TestHeapPropagatesStorageFailures(t *testing.T) {
	fs := &faultStore{MemStore: NewMemStore()}
	pool := NewBufferPool(fs, 2, &Meter{})
	h := newHeap(pool, 1)
	rid, err := h.Insert([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	// Evict the heap page.
	for i := 0; i < 2; i++ {
		nf, err := pool.NewPage(2)
		if err != nil {
			t.Fatal(err)
		}
		nf.Unpin(false)
	}
	fs.failReads = true
	if _, err := h.fetch(rid); !errors.Is(err, errInjected) {
		t.Fatalf("Fetch should surface storage failure, got %v", err)
	}
}

func TestHeapFetchBadSlot(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 4, &Meter{})
	h := newHeap(pool, 1)
	rid, err := h.Insert([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	bad := RID{PageNo: rid.PageNo, Slot: 99}
	if _, err := h.fetch(bad); err == nil {
		t.Fatal("fetching a bogus slot should error")
	}
}

func TestHeapUpdateFailurePaths(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 4, &Meter{})
	h := newHeap(pool, 1)
	rid, err := h.Insert([]byte("abcd"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.UpdateInPlace(rid, []byte("too long")); err == nil {
		t.Fatal("size-changing update should error")
	}
	if err := h.UpdateInPlace(RID{PageNo: 999, Slot: 0}, []byte("abcd")); err == nil {
		t.Fatal("updating a missing page should error")
	}
}

// TestReadPathRejectsCorruptTuples: a stored tuple that no longer
// matches its schema fails every read with decodeRow's error, before the
// callback sees it, and leaves no page pinned.
func TestReadPathRejectsCorruptTuples(t *testing.T) {
	e := newTestEngine(t)
	users, err := e.CreateTable("users", usersSchema(), "id", "region")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := insertRow(users, Row{int64(1), "ab", int64(4), int64(0)})
	if err != nil {
		t.Fatal(err)
	}
	tuple, err := users.heap.fetch(rid)
	if err != nil {
		t.Fatal(err)
	}
	tuple[8], tuple[9] = 0xFF, 0xFF // nickname length now runs past the tuple
	if err := users.heap.UpdateInPlace(rid, tuple); err != nil {
		t.Fatal(err)
	}
	_, want := decodeRow(users.Schema, tuple)
	if want == nil {
		t.Fatal("corrupted tuple still decodes")
	}
	visit := func(Tuple) { t.Fatal("callback saw a corrupt tuple") }
	if _, err := users.ReadByPK(1, visit); err == nil || err.Error() != want.Error() {
		t.Fatalf("ReadByPK: %v, want %v", err, want)
	}
	if _, err := mustIndex(t, users, "region").Read(4, 0, func(int, Tuple) { visit(Tuple{}) }); err == nil || err.Error() != want.Error() {
		t.Fatalf("Index.Read: %v, want %v", err, want)
	}
	if err := users.UpdateNumeric(1, NumericUpdate{Col: 3, Int: 1}); err == nil || err.Error() != want.Error() {
		t.Fatalf("UpdateNumeric: %v, want %v", err, want)
	}
	if err := e.pool.check(); err != nil {
		t.Fatal(err)
	}
	for f := e.pool.lru.next; f != &e.pool.lru; f = f.next {
		if f.pins != 0 {
			t.Fatalf("page %v left with %d pins", f.id, f.pins)
		}
	}
}
