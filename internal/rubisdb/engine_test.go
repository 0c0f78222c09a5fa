package rubisdb

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// newPage returns an initialized empty page outside any buffer pool.
func newPage() Page {
	p := make(Page, PageSize)
	p.initHeader()
	return p
}

func TestPageInsertAndReadBack(t *testing.T) {
	p := newPage()
	a, err := p.InsertCell([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.InsertCell([]byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	if p.nSlots() != 2 {
		t.Fatalf("cells = %d", p.nSlots())
	}
	ca, _ := p.Cell(a)
	cb, _ := p.Cell(b)
	if string(ca) != "hello" || string(cb) != "world!" {
		t.Fatalf("cells: %q %q", ca, cb)
	}
	if _, err := p.Cell(5); err == nil {
		t.Fatal("out-of-range cell should error")
	}
}

func TestPageFillsUp(t *testing.T) {
	p := newPage()
	payload := make([]byte, 1000)
	n := 0
	for {
		if _, err := p.InsertCell(payload); err != nil {
			break
		}
		n++
		if n > 20 {
			t.Fatal("page never filled")
		}
	}
	if n != 8 { // 8*(1000+4) = 8032 < 8186 usable, 9th doesn't fit
		t.Fatalf("fit %d 1000-byte cells", n)
	}
}

func TestPageUpdateInPlace(t *testing.T) {
	p := newPage()
	i, _ := p.InsertCell([]byte("aaaa"))
	if err := p.UpdateCellInPlace(i, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	c, _ := p.Cell(i)
	if string(c) != "bbbb" {
		t.Fatalf("cell = %q", c)
	}
	if err := p.UpdateCellInPlace(i, []byte("toolong")); err == nil {
		t.Fatal("size-changing update should error")
	}
}

func TestBufferPoolHitMissEvict(t *testing.T) {
	meter := &Meter{}
	store := NewMemStore()
	pool := NewBufferPool(store, 2, meter)
	f1, err := pool.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	id1 := f1.ID()
	f1.Page[100] = 42
	f1.Unpin(true)
	f2, _ := pool.NewPage(1)
	f2.Unpin(true)
	f3, _ := pool.NewPage(1) // evicts id1 (LRU), which is dirty
	f3.Unpin(true)
	if pool.resident != 2 {
		t.Fatalf("pool len = %d", pool.resident)
	}
	if meter.PagesWritten == 0 {
		t.Fatal("dirty eviction should write back")
	}
	// Re-reading id1 is a miss but must see the dirty byte.
	f, err := pool.Get(id1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Page[100] != 42 {
		t.Fatal("dirty data lost on eviction")
	}
	f.Unpin(false)
	if meter.PageMisses == 0 || meter.PageHits != 0 {
		t.Fatalf("meter: %+v", meter)
	}
	f, _ = pool.Get(id1) // now a hit
	f.Unpin(false)
	if meter.PageHits != 1 {
		t.Fatalf("hits = %d", meter.PageHits)
	}
}

func TestBufferPoolAllPinnedFails(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 1, &Meter{})
	f, err := pool.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.NewPage(1); err == nil {
		t.Fatal("exhausted pool should error")
	}
	f.Unpin(false)
	f2, err := pool.NewPage(1)
	if err != nil {
		t.Fatalf("after unpin: %v", err)
	}
	f2.Unpin(false)
}

// TestFailedNewPageLeavesNoOrphanPage: a NewPage that fails because
// every frame is pinned must not grow the file, on a plain store and on
// a copy-on-write view, or the file would gain a zeroed page with no
// slot header.
func TestFailedNewPageLeavesNoOrphanPage(t *testing.T) {
	ms := NewMemStore()
	eng, tb := buildPopulated(t, 200, 64)
	g, err := eng.Seal()
	if err != nil {
		t.Fatal(err)
	}
	view := g.NewView()
	cow := view.store.(*cowStore)
	for _, c := range []struct {
		name  string
		pool  *BufferPool
		count func() uint32
	}{
		{"MemStore", NewBufferPool(ms, 4, &Meter{}), func() uint32 { return ms.pages.length(tb.id) }},
		{"view", view.pool, func() uint32 { return cow.PageCount(tb.id) }},
	} {
		before := c.count()
		pinned := 0
		for ; ; pinned++ {
			if _, err := c.pool.NewPage(tb.id); err != nil {
				break
			}
			if pinned > c.pool.capacity {
				t.Fatalf("%s: NewPage never exhausted a pool of %d pages", c.name, c.pool.capacity)
			}
		}
		if got, want := c.count(), before+uint32(pinned); got != want {
			t.Fatalf("%s: PageCount %d after %d pinned NewPages and a failed one, want %d", c.name, got, pinned, want)
		}
	}
}

// TestPoolKeepsNoPageBuffers: the pool borrows its store's buffers, so
// filling a MemStore-backed pool of capacity C with N > C dirty pages
// allocates about N pages, with no second buffer per pooled page, and
// reading them all back through misses allocates nothing.
func TestPoolKeepsNoPageBuffers(t *testing.T) {
	const capacity, n = 512, 1024
	store := NewMemStore()
	pool := NewBufferPool(store, capacity, &Meter{})
	ids := make([]PageID, 0, n)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	fill := allocated(func() {
		for range n {
			f, err := pool.NewPage(1)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, f.ID())
			f.Unpin(true)
		}
	})
	// An eighth of slack covers the page directory and the frames; a
	// pool-owned buffer per frame would add capacity/n = half.
	if pages := uint64(n * PageSize); fill < pages || fill > pages+pages/8 {
		t.Fatalf("filling %d pages through a pool of %d allocated %d bytes, want %d to %d", n, capacity, fill, pages, pages+pages/8)
	}
	reread := allocated(func() {
		for _, id := range ids {
			f, err := pool.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if p := store.pages.at(id); &f.Page[0] != &p[0] {
				t.Fatalf("frame of page %v is not the store's buffer", id)
			}
			f.Unpin(false)
		}
	})
	if reread != 0 {
		t.Fatalf("missing %d pages back in allocated %d bytes", n, reread)
	}
}

func TestBufferPoolGetAllPinnedFails(t *testing.T) {
	// Exhaustion through the Get path: the only frame is pinned, so a
	// miss that needs to evict must fail rather than steal it.
	pool := NewBufferPool(NewMemStore(), 1, &Meter{})
	f1, err := pool.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	id1 := f1.ID()
	f1.Unpin(true)
	f2, err := pool.NewPage(1) // evicts and writes back page 0
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get(id1); err == nil {
		t.Fatal("Get with all frames pinned should error")
	}
	f2.Unpin(false)
	f, err := pool.Get(id1)
	if err != nil {
		t.Fatalf("after unpin: %v", err)
	}
	f.Unpin(false)
}

func TestBufferPoolUnpinPanics(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 2, &Meter{})
	f, err := pool.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	f.Unpin(false)
	defer func() {
		if recover() == nil {
			t.Fatal("double Unpin should panic")
		}
	}()
	f.Unpin(false)
}

// orderStore records the order of page write-backs.
type orderStore struct {
	*MemStore
	writes []PageID
}

func (o *orderStore) WriteBack(id PageID) error {
	o.writes = append(o.writes, id)
	return o.MemStore.WriteBack(id)
}

func TestFlushLimitWritesInLRUOrder(t *testing.T) {
	store := &orderStore{MemStore: NewMemStore()}
	pool := NewBufferPool(store, 4, &Meter{})
	var ids []PageID
	for i := 0; i < 3; i++ {
		f, err := pool.NewPage(1)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		f.Unpin(true)
	}
	// Touch page 0 so page 1 becomes the eviction candidate; recency is
	// now 1 (oldest), 2, 0 (newest).
	f, err := pool.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	f.Unpin(false)
	n, err := pool.FlushLimit(1)
	if err != nil || n != 1 {
		t.Fatalf("FlushLimit = %d, %v", n, err)
	}
	if len(store.writes) != 1 || store.writes[0] != ids[1] {
		t.Fatalf("first flush should hit the LRU dirty page %v, wrote %v", ids[1], store.writes)
	}
	// The rest follow in LRU order, skipping the already-clean page.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	want := []PageID{ids[1], ids[2], ids[0]}
	if len(store.writes) != 3 {
		t.Fatalf("writes = %v", store.writes)
	}
	for i, id := range want {
		if store.writes[i] != id {
			t.Fatalf("flush order = %v, want %v", store.writes, want)
		}
	}
}

func TestHeapInsertFetchAcrossPages(t *testing.T) {
	meter := &Meter{}
	store := NewMemStore()
	pool := NewBufferPool(store, 16, meter)
	h := newHeap(pool, 3)
	payload := strings.Repeat("x", 3000)
	var rids []RID
	for i := 0; i < 10; i++ { // 2 per page -> 5 pages
		rid, err := h.Insert([]byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if store.pages.length(3) < 4 {
		t.Fatalf("expected multiple pages, got %d", store.pages.length(3))
	}
	for _, rid := range rids {
		got, err := h.fetch(rid)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != payload {
			t.Fatal("fetch mismatch")
		}
	}
	if h.Rows != 10 {
		t.Fatalf("Rows = %d", h.Rows)
	}
}

func TestHeapRejectsGiantTuple(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 4, &Meter{})
	h := newHeap(pool, 1)
	if _, err := h.Insert(make([]byte, PageSize)); err == nil {
		t.Fatal("giant tuple should error")
	}
}

func TestRIDEncodeDecode(t *testing.T) {
	r := RID{PageNo: 123456, Slot: 789}
	if DecodeRID(r.Encode()) != r {
		t.Fatalf("round trip failed: %+v", DecodeRID(r.Encode()))
	}
}

// TestWALFraming pins the framed size of both record shapes: a frame
// (lsn 8 + length 4 + checksum 4) around a typed header (table id 4 +
// op code 1), extended for a batch by a row count (4) and a u16 length
// prefix per row image.
func TestWALFraming(t *testing.T) {
	var m Meter
	m.logRecord(len("payload"))
	if want := float64(16 + 5 + 7); m.WALBytes != want {
		t.Fatalf("record: WALBytes = %v, want %v", m.WALBytes, want)
	}
	m = Meter{}
	m.logBatch(3, 40)
	if want := float64(16 + 5 + 4 + 3*2 + 40); m.WALBytes != want {
		t.Fatalf("batch: WALBytes = %v, want %v", m.WALBytes, want)
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	schema := Schema{
		{Name: "id", Type: TInt64},
		{Name: "price", Type: TFloat64},
		{Name: "name", Type: TString},
	}
	row := Row{int64(-7), 3.25, "widget"}
	data, err := encodeRow(schema, row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRow(schema, data)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != int64(-7) || got[1] != 3.25 || got[2] != "widget" {
		t.Fatalf("round trip: %v", got)
	}
}

func TestRowCodecErrors(t *testing.T) {
	schema := Schema{{Name: "id", Type: TInt64}}
	if _, err := encodeRow(schema, Row{"nope"}); err == nil {
		t.Fatal("type mismatch should error")
	}
	if _, err := encodeRow(schema, Row{int64(1), int64(2)}); err == nil {
		t.Fatal("arity mismatch should error")
	}
	if _, err := decodeRow(schema, []byte{1, 2}); err == nil {
		t.Fatal("truncated tuple should error")
	}
	if _, err := decodeRow(schema, append(make([]byte, 8), 0xFF)); err == nil {
		t.Fatal("trailing bytes should error")
	}
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	return NewEngine(512, DefaultCostModel())
}

func usersSchema() Schema {
	return Schema{
		{Name: "id", Type: TInt64},
		{Name: "nickname", Type: TString},
		{Name: "region", Type: TInt64},
		{Name: "rating", Type: TInt64},
	}
}

func TestEngineCreateInsertQuery(t *testing.T) {
	e := newTestEngine(t)
	users, err := e.CreateTable("users", usersSchema(), "id", "region")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 500; i++ {
		_, err := insertRow(users, Row{i, "user", i % 10, int64(0)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if row := readRow(t, users, 123); row == nil || row[0] != int64(123) {
		t.Fatalf("ReadByPK: %v", row)
	}
	if found, err := users.ReadByPK(9999, func(Tuple) { t.Fatal("absent pk visited a row") }); err != nil || found {
		t.Fatalf("absent pk: found=%v err=%v", found, err)
	}
	region := mustIndex(t, users, "region")
	var regions []int64
	inRegion, err := region.Read(3, 0, func(i int, tu Tuple) {
		if i != len(regions) {
			t.Fatalf("Read visited row %d out of order", i)
		}
		regions = append(regions, tu.Int(2))
	})
	if err != nil {
		t.Fatal(err)
	}
	if inRegion != 50 || len(regions) != 50 {
		t.Fatalf("region lookup returned %d rows, visited %d", inRegion, len(regions))
	}
	for _, r := range regions {
		if r != 3 {
			t.Fatalf("region lookup visited a row of region %d", r)
		}
	}
	n, err := region.Count(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n != 250 {
		t.Fatalf("Count = %d", n)
	}
	limited, err := region.Read(7, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if limited != 25 {
		t.Fatalf("limit ignored: %d", limited)
	}
	if n, err := mustIndex(t, users, "id").Read(42, 0, nil); err != nil || n != 1 {
		t.Fatalf("Read on the primary key: n=%d err=%v", n, err)
	}
}

func TestEngineConstraints(t *testing.T) {
	e := newTestEngine(t)
	users, err := e.CreateTable("users", usersSchema(), "id", "region")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("users", usersSchema(), "id"); err == nil {
		t.Fatal("duplicate table should error")
	}
	if _, err := e.CreateTable("bad", usersSchema(), "nickname"); err == nil {
		t.Fatal("string pk should error")
	}
	if _, err := e.CreateTable("bad2", usersSchema(), "id", "nickname"); err == nil {
		t.Fatal("string secondary index should error")
	}
	if _, err := insertRow(users, Row{int64(1), "a", int64(0), int64(0)}); err != nil {
		t.Fatal(err)
	}
	// Rejected rows: none is stored or leaves a frame pinned, and those
	// the encoder rejects are turned away before any page is touched.
	for _, c := range []struct {
		name    string
		write   func(*RowWriter)
		want    string
		touches bool // the primary-key lookup runs before the rejection
	}{
		{"wrong column type", func(w *RowWriter) { w.Int(2); w.String("b"); w.Float(0); w.Int(0) },
			`column "region" wants int64, got float64`, false},
		{"short row", func(w *RowWriter) { w.Int(2); w.String("b"); w.Int(0) },
			"row arity 3 != schema arity 4", false},
		{"long row", func(w *RowWriter) { w.Int(2); w.String("b"); w.Int(0); w.Int(0); w.Int(0) },
			"row arity 5 != schema arity 4", false},
		{"string over 0xFFFF", func(w *RowWriter) { w.Int(2); w.String(strings.Repeat("x", 0x10000)); w.Int(0); w.Int(0) },
			`column "nickname" string too long (65536)`, false},
		{"duplicate pk", func(w *RowWriter) { w.Int(1); w.String("b"); w.Int(0); w.Int(0) },
			"duplicate primary key 1", true},
	} {
		rows, meter := users.heap.Rows, e.Meter()
		w := users.Writer()
		c.write(w)
		if _, err := w.Insert(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Insert = %v, want an error containing %q", c.name, err, c.want)
		}
		if users.heap.Rows != rows {
			t.Fatalf("%s: %d rows after the rejection, want %d", c.name, users.heap.Rows, rows)
		}
		if err := e.Check(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !c.touches && e.Meter() != meter {
			t.Fatalf("%s: the rejection did metered work: %+v", c.name, e.Meter().Sub(meter))
		}
	}
	// The writer recovers from every rejection.
	if _, err := insertRow(users, Row{int64(2), "b", int64(0), int64(0)}); err != nil {
		t.Fatal(err)
	}
	if users.heap.Rows != 2 {
		t.Fatalf("%d rows, want 2", users.heap.Rows)
	}
	if _, err := users.Index("missing"); err == nil {
		t.Fatal("Index on a missing column should error")
	}
	if _, err := users.Index("rating"); err == nil {
		t.Fatal("Index on an unindexed column should error")
	}
	if _, err := e.Table("missing"); err == nil {
		t.Fatal("missing table should error")
	}
}

func TestEngineUpdateNumeric(t *testing.T) {
	e := newTestEngine(t)
	items, err := e.CreateTable("items", Schema{
		{Name: "id", Type: TInt64},
		{Name: "name", Type: TString},
		{Name: "price", Type: TFloat64},
		{Name: "bids", Type: TInt64},
		{Name: "seller", Type: TInt64},
	}, "id", "seller")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insertRow(items, Row{int64(1), "vase", 10.0, int64(0), int64(9)}); err != nil {
		t.Fatal(err)
	}
	if err := items.UpdateNumeric(1, NumericUpdate{Col: 2, Float: 12.5}, NumericUpdate{Col: 3, Int: 1}); err != nil {
		t.Fatal(err)
	}
	row := readRow(t, items, 1)
	if row[2] != 12.5 || row[3] != int64(1) || row[1] != "vase" || row[4] != int64(9) {
		t.Fatalf("update lost: %v", row)
	}
	for _, tc := range []struct {
		name string
		key  int64
		u    NumericUpdate
	}{
		{"pk update", 1, NumericUpdate{Col: 0, Int: 5}},
		{"indexed column update", 1, NumericUpdate{Col: 4, Int: 5}},
		{"string update", 1, NumericUpdate{Col: 1}},
		{"absent row update", 99, NumericUpdate{Col: 2, Float: 1}},
		{"wrong-typed update", 1, NumericUpdate{Col: 2, Int: 3}},
		{"int column set through Float", 1, NumericUpdate{Col: 3, Float: 3}},
		{"out-of-range column", 1, NumericUpdate{Col: 5, Int: 1}},
	} {
		if err := items.UpdateNumeric(tc.key, tc.u); err == nil {
			t.Fatalf("%s should error", tc.name)
		}
	}
	if row := readRow(t, items, 1); row[2] != 12.5 || row[3] != int64(1) {
		t.Fatalf("rejected updates changed the row: %v", row)
	}
}

func TestEngineReceipts(t *testing.T) {
	e := newTestEngine(t)
	users, _ := e.CreateTable("users", usersSchema(), "id", "region")
	for i := int64(0); i < 100; i++ {
		if _, err := insertRow(users, Row{i, "u", i % 5, int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Meter()
	if _, err := mustIndex(t, users, "region").Read(2, 0, nil); err != nil {
		t.Fatal(err)
	}
	r := e.ReceiptSince(snap)
	if r.Work.RowsRead != 20 {
		t.Fatalf("receipt rows = %d", r.Work.RowsRead)
	}
	if r.CPUCycles <= DefaultCostModel().BaseCyclesPerQuery {
		t.Fatalf("receipt cycles = %v", r.CPUCycles)
	}
	if r.Work.BytesOut <= 0 {
		t.Fatal("receipt should report result bytes")
	}
	// A write receipt carries WAL traffic.
	snap = e.Meter()
	if _, err := insertRow(users, Row{int64(1000), "w", int64(0), int64(0)}); err != nil {
		t.Fatal(err)
	}
	r = e.ReceiptSince(snap)
	if r.Work.WALBytes <= 0 || r.DiskWriteBytes <= 0 {
		t.Fatalf("write receipt: %+v", r)
	}
}

func TestEngineBufferWarmupImprovesHitRatio(t *testing.T) {
	e := NewEngine(4096, DefaultCostModel())
	users, _ := e.CreateTable("users", usersSchema(), "id", "region")
	for i := int64(0); i < 2000; i++ {
		if _, err := insertRow(users, Row{i, strings.Repeat("u", 40), i % 50, int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := e.Meter()
	for i := int64(0); i < 2000; i++ {
		if _, err := users.ReadByPK(i, nil); err != nil {
			t.Fatal(err)
		}
	}
	mid := e.Meter().Sub(before)
	for i := int64(0); i < 2000; i++ {
		if _, err := users.ReadByPK(i, nil); err != nil {
			t.Fatal(err)
		}
	}
	after := e.Meter().Sub(before).Sub(mid)
	if after.PageMisses > mid.PageMisses {
		t.Fatalf("warm pass missed more: %d vs %d", after.PageMisses, mid.PageMisses)
	}
	m := e.Meter()
	if ratio := float64(m.PageHits) / float64(m.PageHits+m.PageMisses); ratio <= 0.5 {
		t.Fatalf("hit ratio = %v", ratio)
	}
}

// Property: row codec round-trips arbitrary values.
func TestPropertyRowCodecRoundTrip(t *testing.T) {
	schema := Schema{
		{Name: "a", Type: TInt64},
		{Name: "b", Type: TFloat64},
		{Name: "c", Type: TString},
	}
	f := func(a int64, b float64, c string) bool {
		if b != b { // NaN: bit pattern survives but != comparison fails
			return true
		}
		if len(c) > 0xFFFF {
			c = c[:0xFFFF]
		}
		data, err := encodeRow(schema, Row{a, b, c})
		if err != nil {
			return false
		}
		got, err := decodeRow(schema, data)
		if err != nil {
			return false
		}
		return got[0] == a && got[1] == b && got[2] == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: meter differencing is consistent: (m+d)-m == d.
func TestPropertyMeterSubAdd(t *testing.T) {
	f := func(h1, m1, w1 uint16, wal1 uint32, h2, m2, w2 uint16, wal2 uint32) bool {
		a := Meter{PageHits: uint64(h1), PageMisses: uint64(m1), PagesWritten: uint64(w1), WALBytes: float64(wal1)}
		d := Meter{PageHits: uint64(h2), PageMisses: uint64(m2), PagesWritten: uint64(w2), WALBytes: float64(wal2)}
		sum := Meter{PageHits: a.PageHits + d.PageHits, PageMisses: a.PageMisses + d.PageMisses,
			PagesWritten: a.PagesWritten + d.PagesWritten, WALBytes: a.WALBytes + d.WALBytes}
		back := sum.Sub(a)
		return back == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
