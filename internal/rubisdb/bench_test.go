package rubisdb

import (
	"math/rand"
	"testing"
)

func BenchmarkBTreeInsertSequential(b *testing.B) {
	pool := NewBufferPool(NewMemStore(), 4096, &Meter{})
	tree, err := newBTree(pool, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Insert(int64(i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeInsertRandom(b *testing.B) {
	pool := NewBufferPool(NewMemStore(), 4096, &Meter{})
	tree, err := newBTree(pool, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Insert(r.Int63(), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeSearchWarm(b *testing.B) {
	pool := NewBufferPool(NewMemStore(), 4096, &Meter{})
	tree, err := newBTree(pool, 1)
	if err != nil {
		b.Fatal(err)
	}
	const n = 100000
	for i := 0; i < n; i++ {
		if err := tree.Insert(int64(i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.search(int64(i % n)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeSearchColdPool(b *testing.B) {
	// A pool far below the index size: every search pays eviction traffic.
	pool := NewBufferPool(NewMemStore(), 16, &Meter{})
	tree, err := newBTree(pool, 1)
	if err != nil {
		b.Fatal(err)
	}
	const n = 100000
	for i := 0; i < n; i++ {
		if err := tree.Insert(int64(i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.search(int64(r.Intn(n))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBTreeInsert is the duplicate-heavy pattern secondary indexes
// see at runtime: a bounded key space with a unique value per entry.
func BenchmarkBTreeInsert(b *testing.B) {
	pool := NewBufferPool(NewMemStore(), 4096, &Meter{})
	tree, err := newBTree(pool, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Insert(int64(r.Intn(5000)), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeScanRange(b *testing.B) {
	pool := NewBufferPool(NewMemStore(), 4096, &Meter{})
	tree, err := newBTree(pool, 1)
	if err != nil {
		b.Fatal(err)
	}
	const n = 100000
	for i := 0; i < n; i++ {
		if err := tree.Insert(int64(i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64((i * 997) % (n - 100))
		count := 0
		err := tree.ScanRange(lo, lo+99, func(int64, uint64) bool {
			count++
			return true
		})
		if err != nil || count != 100 {
			b.Fatalf("scan = %d, %v", count, err)
		}
	}
}

// BenchmarkBufferPoolGet times the resident hit path: one directory
// lookup, a pin, and an intrusive LRU move — no allocation.
func BenchmarkBufferPoolGet(b *testing.B) {
	pool := NewBufferPool(NewMemStore(), 128, &Meter{})
	ids := make([]PageID, 64)
	for i := range ids {
		f, err := pool.NewPage(1)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = f.ID()
		f.Unpin(false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := pool.Get(ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		f.Unpin(false)
	}
}

// BenchmarkBufferPoolGetView times the hit path a sweep takes: resident
// pages of a copy-on-write view over a sealed golden, under the engine's
// table file ids (heap 16, primary key 17, secondary index 18) instead of
// BenchmarkBufferPoolGet's single file 1 in a plain store.
func BenchmarkBufferPoolGetView(b *testing.B) {
	eng, _ := buildPopulated(b, 5000, 256)
	g, err := eng.Seal()
	if err != nil {
		b.Fatal(err)
	}
	v := g.NewView()
	ids := g.residents
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := v.pool.Get(ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		f.Unpin(false)
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	const n = 100000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: int64(i), Value: uint64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := NewBufferPool(NewMemStore(), 4096, &Meter{})
		tree, err := newBTree(pool, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := tree.BulkLoad(entries); err != nil {
			b.Fatal(err)
		}
		if tree.Len() != n {
			b.Fatal("short load")
		}
	}
}

func BenchmarkHeapInsert(b *testing.B) {
	pool := NewBufferPool(NewMemStore(), 1024, &Meter{})
	h := newHeap(pool, 1)
	payload := make([]byte, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCOWFirstWrite measures privatizing a shared golden page: the
// one-time per-page cost a view pays on its first write intent (an 8 KB
// copy into a private page its store owns from then on). Each pass touches every resident golden
// page once, then rearms the view so the next pass privatizes again.
func BenchmarkCOWFirstWrite(b *testing.B) {
	eng, _ := buildPopulated(b, 5000, 256)
	g, err := eng.Seal()
	if err != nil {
		b.Fatal(err)
	}
	v := g.NewView()
	ids := make([]PageID, len(g.residents))
	copy(ids, g.residents)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(ids) == 0 && i > 0 {
			b.StopTimer()
			g.Rearm(v)
			b.StartTimer()
		}
		f, err := v.pool.GetMut(ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		f.Unpin(true)
	}
}

// queryMixSink keeps BenchmarkEngineQueryMix's column reads observable.
var queryMixSink int64

func BenchmarkEngineQueryMix(b *testing.B) {
	e := NewEngine(1024, DefaultCostModel())
	users, err := e.CreateTable("users", usersSchema(), "id", "region")
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 20000; i++ {
		if _, err := insertRow(users, Row{i, "user", i % 50, int64(0)}); err != nil {
			b.Fatal(err)
		}
	}
	region := mustIndex(b, users, "region")
	var sum int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := e.Meter()
		if _, err := users.ReadByPK(int64(i%20000), func(tu Tuple) { sum += tu.Int(3) }); err != nil {
			b.Fatal(err)
		}
		if _, err := region.Read(int64(i%50), 10, func(_ int, tu Tuple) { sum += tu.Int(0) }); err != nil {
			b.Fatal(err)
		}
		_ = e.ReceiptSince(snap)
	}
	queryMixSink = sum
}

// BenchmarkIndexRead measures one secondary-index read through a
// resolved Index handle: a scan of the region index into the table's
// RID list, stopped at 10 rows, then each row pinned, validated and
// read.
func BenchmarkIndexRead(b *testing.B) {
	e := NewEngine(1024, DefaultCostModel())
	users, err := e.CreateTable("users", usersSchema(), "id", "region")
	if err != nil {
		b.Fatal(err)
	}
	w := users.BulkWriter(20000)
	for i := int64(0); i < 20000; i++ {
		w.Int(i)
		w.String("user")
		w.Int(i % 50)
		w.Int(0)
		w.EndRow()
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	region := mustIndex(b, users, "region")
	var sum int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := region.Read(int64(i%50), 10, func(_ int, tu Tuple) { sum += tu.Int(0) }); err != nil {
			b.Fatal(err)
		}
	}
	queryMixSink = sum
}

// BenchmarkBulkWriterRow measures one row streamed into a BulkWriter
// sized by a row-count hint: four typed column appends and EndRow's
// heap insert, key check and index entry collection. Close, which
// builds the indexes once per load, runs outside the timer.
func BenchmarkBulkWriterRow(b *testing.B) {
	e := NewEngine(1024, DefaultCostModel())
	users, err := e.CreateTable("users", usersSchema(), "id", "region")
	if err != nil {
		b.Fatal(err)
	}
	w := users.BulkWriter(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Int(int64(i))
		w.String("nickname")
		w.Int(int64(i % 50))
		w.Int(0)
		w.EndRow()
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}
