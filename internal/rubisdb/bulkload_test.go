package rubisdb

import (
	"math/rand"
	"sort"
	"testing"
)

func collectAll(t *testing.T, tree *BTree) []Entry {
	t.Helper()
	var got []Entry
	if err := tree.ScanRange(-1<<62, 1<<62, func(k int64, v uint64) bool {
		got = append(got, Entry{Key: k, Value: v})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestBulkLoadMatchesInsertPath(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const n = 5000
	entries := make([]Entry, n)
	for i := range entries {
		// Small key space: long duplicate runs, like a secondary index.
		entries[i] = Entry{Key: int64(r.Intn(40)) - 20, Value: uint64(i)}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Key != entries[j].Key {
			return entries[i].Key < entries[j].Key
		}
		return entries[i].Value < entries[j].Value
	})

	bulk := newTestTree(t, 256)
	if err := bulk.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	incr := newTestTree(t, 256)
	for _, e := range entries {
		if err := incr.Insert(e.Key, e.Value); err != nil {
			t.Fatal(err)
		}
	}
	if bulk.Len() != n || incr.Len() != n {
		t.Fatalf("Len: bulk=%d incr=%d", bulk.Len(), incr.Len())
	}
	got, want := collectAll(t, bulk), collectAll(t, incr)
	if len(got) != len(want) {
		t.Fatalf("scan lengths: bulk=%d incr=%d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: bulk=%v incr=%v", i, got[i], want[i])
		}
	}
	// Point lookups agree too.
	for k := int64(-20); k < 20; k++ {
		a, err := bulk.search(k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := incr.search(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("Search(%d): bulk=%d incr=%d values", k, len(a), len(b))
		}
	}
}

func TestBulkLoadBuildsMultipleLevels(t *testing.T) {
	const n = 200000 // > leafBulkFill*(innerMax+1) leaves => height 3
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: int64(i), Value: uint64(i)}
	}
	tree := newTestTree(t, 4096)
	if err := tree.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	h, err := height(tree)
	if err != nil {
		t.Fatal(err)
	}
	if h < 3 {
		t.Fatalf("height = %d, want >= 3", h)
	}
	for i := 0; i < n; i += 997 {
		vals, err := tree.search(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 1 || vals[0] != uint64(i) {
			t.Fatalf("Search(%d) = %v", i, vals)
		}
	}
	// The loaded tree accepts ordinary inserts afterwards.
	if err := tree.Insert(int64(n)+5, 1); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadRejectsBadInput(t *testing.T) {
	tree := newTestTree(t, 64)
	if err := tree.BulkLoad([]Entry{{2, 0}, {1, 0}}); err == nil {
		t.Fatal("unsorted entries should error")
	}
	if err := tree.BulkLoad([]Entry{{1, 7}, {1, 7}}); err == nil {
		t.Fatal("exact duplicates should error")
	}
	if err := tree.BulkLoad(nil); err != nil {
		t.Fatalf("empty load should be a no-op: %v", err)
	}
	if err := tree.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad([]Entry{{2, 0}}); err == nil {
		t.Fatal("bulk load into a non-empty tree should error")
	}
}

func TestBulkLoadFailureLeavesConsistentEmptyTree(t *testing.T) {
	// A capacity-1 pool cannot hold the previous leaf pinned while the
	// next is allocated, so a multi-leaf load fails mid-build. The tree
	// must come back as a consistent empty tree, not a half-loaded one.
	tree := newTestTree(t, 1)
	entries := make([]Entry, 1000)
	for i := range entries {
		entries[i] = Entry{Key: int64(i), Value: uint64(i)}
	}
	if err := tree.BulkLoad(entries); err == nil {
		t.Fatal("multi-leaf BulkLoad on a capacity-1 pool should fail")
	}
	if tree.Len() != 0 {
		t.Fatalf("Len after failed load = %d", tree.Len())
	}
	if got := collectAll(t, tree); len(got) != 0 {
		t.Fatalf("failed load left %d reachable entries", len(got))
	}
	// Ordinary single-leaf operation still works afterwards.
	for i := int64(0); i < 100; i++ {
		if err := tree.Insert(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := tree.search(42)
	if err != nil || len(vals) != 1 || vals[0] != 42 {
		t.Fatalf("Search after recovery = %v, %v", vals, err)
	}
}

// Regression: a duplicate-key run spanning a leaf split must stay fully
// reachable. With key-only separators (the pre-composite encoding) the
// descent lands right of the split point and Search drops the left
// leaf's duplicates.
func TestBTreeDuplicateRunSpansLeafSplits(t *testing.T) {
	tree := newTestTree(t, 256)
	const dups = 2000 // ~4 leaves of the same key
	r := rand.New(rand.NewSource(3))
	if err := tree.Insert(6, 0); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(8, 0); err != nil {
		t.Fatal(err)
	}
	for _, v := range r.Perm(dups) {
		if err := tree.Insert(7, uint64(v)); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := tree.search(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != dups {
		t.Fatalf("Search(7) = %d values, want %d", len(vals), dups)
	}
	for i, v := range vals {
		if v != uint64(i) {
			t.Fatalf("values out of order at %d: %d", i, v)
		}
	}
}

func TestTableBulkInsertMatchesInsert(t *testing.T) {
	mkRows := func(n int) []Row {
		r := rand.New(rand.NewSource(5))
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{int64(i), "user", int64(r.Intn(7)), int64(0)}
		}
		return rows
	}
	const n = 2000

	bulkEng := NewEngine(512, DefaultCostModel())
	bulk, err := bulkEng.CreateTable("users", usersSchema(), "id", "region")
	if err != nil {
		t.Fatal(err)
	}
	if err := bulkInsert(bulk, mkRows(n)); err != nil {
		t.Fatal(err)
	}
	incrEng := NewEngine(512, DefaultCostModel())
	incr, err := incrEng.CreateTable("users", usersSchema(), "id", "region")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range mkRows(n) {
		if _, err := insertRow(incr, row); err != nil {
			t.Fatal(err)
		}
	}
	if bulk.heap.Rows != n || incr.heap.Rows != n {
		t.Fatalf("rows: bulk=%d incr=%d", bulk.heap.Rows, incr.heap.Rows)
	}
	for _, tbl := range []*Table{bulk, incr} {
		if row := readRow(t, tbl, 123); row == nil || row[0] != int64(123) {
			t.Fatalf("ReadByPK: %v", row)
		}
	}
	for reg := int64(0); reg < 7; reg++ {
		a, err := mustIndex(t, bulk, "region").Read(reg, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mustIndex(t, incr, "region").Read(reg, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("region %d: bulk=%d incr=%d rows", reg, a, b)
		}
	}
	// Same logical write work is metered (hits/misses differ by design).
	if bulkEng.Meter().RowsWritten != incrEng.Meter().RowsWritten {
		t.Fatalf("RowsWritten: bulk=%d incr=%d", bulkEng.Meter().RowsWritten, incrEng.Meter().RowsWritten)
	}
	// WAL traffic differs by design: the bulk path frames one batched
	// record per heap page (LOAD DATA), the incremental path one record
	// per row. TestBulkInsertWALBatchRecoveryEquivalence pins that the
	// two streams carry identical row images; here it suffices that
	// batching only ever removed framing overhead.
	if b, i := bulkEng.Meter().WALBytes, incrEng.Meter().WALBytes; b >= i {
		t.Fatalf("batched WAL (%v bytes) should undercut per-row framing (%v bytes)", b, i)
	}
	// After bulk load the table behaves normally for writes.
	if _, err := insertRow(bulk, Row{int64(n + 1), "late", int64(1), int64(0)}); err != nil {
		t.Fatal(err)
	}
	if err := bulkInsert(bulk, mkRows(1)); err == nil {
		t.Fatal("bulk load into a populated table should error")
	}
	unsorted := []Row{{int64(5), "a", int64(0), int64(0)}, {int64(4), "b", int64(0), int64(0)}}
	empty := NewEngine(64, DefaultCostModel())
	et, err := empty.CreateTable("users", usersSchema(), "id", "region")
	if err != nil {
		t.Fatal(err)
	}
	if err := bulkInsert(et, unsorted); err == nil {
		t.Fatal("unsorted bulk load should error")
	}
}

// TestBulkInsertWALBatchRecoveryEquivalence pins the WAL batching
// contract: a bulk load logs one framed batch record per heap page,
// and the payload those batches carry — each row image plus its length
// prefix — is byte-equivalent to what per-row framing carries, so a
// recovery replay would reconstruct identical row images from either
// stream. The difference between the two streams is exactly the framing
// overhead: per-row pays frame+header per row, batched pays it per page
// plus a u16 prefix per row.
func TestBulkInsertWALBatchRecoveryEquivalence(t *testing.T) {
	mkRows := func(n int) []Row {
		r := rand.New(rand.NewSource(9))
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{int64(i), "user", int64(r.Intn(7)), int64(0)}
		}
		return rows
	}
	const n = 3000
	rows := mkRows(n)

	// The ground truth: the images both paths must log.
	imageBytes := 0
	for _, row := range rows {
		img, err := encodeRow(usersSchema(), row)
		if err != nil {
			t.Fatal(err)
		}
		imageBytes += len(img)
	}

	bulkEng := NewEngine(512, DefaultCostModel())
	bulk, err := bulkEng.CreateTable("users", usersSchema(), "id", "region")
	if err != nil {
		t.Fatal(err)
	}
	if err := bulkInsert(bulk, rows); err != nil {
		t.Fatal(err)
	}
	incrEng := NewEngine(512, DefaultCostModel())
	incr, err := incrEng.CreateTable("users", usersSchema(), "id", "region")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if _, err := insertRow(incr, row); err != nil {
			t.Fatal(err)
		}
	}

	// Per-row framing: n records of frame + header + image.
	perRowOverhead := float64(n * (walFrameOverhead + walRecordHeader))
	if got, want := incrEng.Meter().WALBytes, perRowOverhead+float64(imageBytes); got != want {
		t.Fatalf("per-row WAL bytes = %v, want %v", got, want)
	}

	// Batched framing: one record per heap page, frame + batch header
	// each, plus a length prefix per row, plus the identical images. Any
	// other batch count shifts the total by whole frames and headers.
	batches := int(bulk.heap.last.PageNo-firstHeapPage(bulk)) + 1
	batchOverhead := float64(batches*(walFrameOverhead+walBatchHeader) + n*walBatchRowPrefix)
	if got, want := bulkEng.Meter().WALBytes, batchOverhead+float64(imageBytes); got != want {
		t.Fatalf("batched WAL bytes = %v, want %v", got, want)
	}

	// Recovery equivalence: strip each stream's known framing and the
	// same image payload must remain.
	perRowImages := incrEng.Meter().WALBytes - perRowOverhead
	batchImages := bulkEng.Meter().WALBytes - batchOverhead
	if perRowImages != batchImages {
		t.Fatalf("recovered image payloads differ: per-row=%v batched=%v", perRowImages, batchImages)
	}
}

// firstHeapPage reports the page number of the table's first heap page.
func firstHeapPage(tb *Table) uint32 {
	rids, err := tb.pk.search(0)
	if err != nil || len(rids) == 0 {
		panic("firstHeapPage: pk 0 missing")
	}
	return DecodeRID(rids[0]).PageNo
}
