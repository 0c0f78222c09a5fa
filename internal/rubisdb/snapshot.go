package rubisdb

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
)

// Golden dataset snapshots.
//
// Populating a default RUBiS dataset costs ~30 ms and ~1.4k
// allocations; its pages fill ~17 MB of slabs and the bulk load's index
// entry lists ~8 MB more. A sweep that wants a fresh dataset repeats it
// for every replication. Seal captures a populated engine — the sealed
// MemStore pages plus every piece of mutable engine state (buffer-pool
// residency in exact LRU order, meter, per-table
// heap/B-tree cursors) — as an immutable Golden. NewView then builds a
// copy-on-write engine over it in microseconds: frames alias golden
// pages directly (cowStore.Page reports them shared) and a page is
// copied only on first write, into a private page the view's store owns
// from then on. A replication's view therefore starts byte-identical to
// a fresh population and diverges privately. Rearm rewinds a released
// view back to the sealed state, recycling its private pages and frames
// through the free lists, which makes the steady-state attach path
// allocation-free. Close ends a golden nobody will attach again: its
// slabs and its views' go back to slabPool for the next population, and
// the bulk load's entry lists already went back to entryPool when its
// BulkWriters closed.

// tableState captures one table's mutable cursors in registration order.
type tableState struct {
	name     string
	schema   Schema
	id       uint32
	pkCol    int
	secCols  []int
	heapLast PageID
	heapHas  bool
	heapRows int
	pkRoot   PageID
	pkSize   int
	secRoots []PageID
	secSizes []int
}

// Golden is a sealed, immutable engine snapshot that any number of
// copy-on-write views can attach to concurrently.
type Golden struct {
	store    *MemStore
	meter    Meter
	cost     CostModel
	capacity int
	nextID   uint32
	// residents is the buffer pool's resident set at seal time, most
	// recently used first, so a view's LRU order (and therefore its
	// future eviction sequence) matches a fresh population exactly.
	residents []PageID
	tables    []tableState
	// views lists every engine NewView built, so Close can recycle
	// their private pages too and cut them off from the golden's.
	// Views are built concurrently, so mu guards the list.
	mu    sync.Mutex
	views []*Engine
}

// Seal freezes the engine into a Golden snapshot. All dirty pages are
// flushed first (a no-op on the meter when the caller already
// checkpointed, as dataset population does) and no frame may be pinned.
// The engine's store becomes immutable; the engine itself must not be
// used afterwards — attach views instead.
func (e *Engine) Seal() (*Golden, error) {
	ms, ok := e.store.(*MemStore)
	if !ok {
		return nil, fmt.Errorf("rubisdb: Seal of a copy-on-write view")
	}
	if err := e.pool.FlushAll(); err != nil {
		return nil, err
	}
	g := &Golden{
		store:     ms,
		meter:     *e.meter,
		cost:      e.cost,
		capacity:  e.pool.capacity,
		nextID:    e.nextID,
		residents: make([]PageID, 0, e.pool.resident),
		tables:    make([]tableState, 0, len(e.tableOrder)),
	}
	for f := e.pool.lru.next; f != &e.pool.lru; f = f.next {
		if f.pins != 0 {
			return nil, fmt.Errorf("rubisdb: Seal with page %v still pinned", f.id)
		}
		g.residents = append(g.residents, f.id)
	}
	secs := 0
	for _, t := range e.tableOrder {
		secs += len(t.secs)
	}
	secRoots := make([]PageID, 0, secs)
	secSizes := make([]int, 0, secs)
	for _, t := range e.tableOrder {
		ts := tableState{
			name:     t.Name,
			schema:   t.Schema,
			id:       t.id,
			pkCol:    t.pkCol,
			secCols:  t.secCols,
			heapLast: t.heap.last,
			heapHas:  t.heap.has,
			heapRows: t.heap.Rows,
			pkRoot:   t.pk.root,
			pkSize:   t.pk.size,
		}
		for _, sec := range t.secs {
			secRoots = append(secRoots, sec.root)
			secSizes = append(secSizes, sec.size)
		}
		n := len(secRoots)
		ts.secRoots = secRoots[n-len(t.secs) : n : n]
		ts.secSizes = secSizes[n-len(t.secs) : n : n]
		g.tables = append(g.tables, ts)
	}
	ms.sealed = true
	// The engine is done: its frames go to the pool the golden's first
	// view carves its own from.
	e.pool.release()
	return g, nil
}

// Digest hashes every sealed page with its id, in (file, page) order.
// No view may ever change it. It is a deliberate test hook: no
// production path calls it, and the snapshot tests compare it before
// and after views write to prove the golden pages stay shared and
// untouched.
func (g *Golden) Digest() [32]byte {
	g.mustBeOpen("Digest")
	h := sha256.New()
	var id [8]byte
	for file, pages := range g.store.pages.files {
		for no, p := range pages {
			binary.BigEndian.PutUint32(id[:4], uint32(file))
			binary.BigEndian.PutUint32(id[4:], uint32(no))
			h.Write(id[:])
			h.Write(p)
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// NewView builds a fresh copy-on-write engine over the snapshot. Views
// are independent: each has its own buffer pool, meter and private page
// set, so concurrent views never observe each other. For the
// allocation-free path, recycle a finished view with Rearm instead: the
// golden keeps every view it built until Close.
func (g *Golden) NewView() *Engine {
	g.mustBeOpen("NewView")
	meter := &Meter{}
	cow := &cowStore{golden: g.store}
	pool := NewBufferPool(cow, g.capacity, meter)
	if pool.frames.files == nil {
		// No recycled directory: size one from the golden so Rearm's
		// resident set never regrows it.
		pool.frames = pageDirLike[*Frame](&g.store.pages)
	}
	e := &Engine{
		store:  cow,
		pool:   pool,
		meter:  meter,
		cost:   g.cost,
		tables: make(map[string]*Table, len(g.tables)),
	}
	// The view's tables, heaps and trees are carved from one array each.
	trees := 0
	for i := range g.tables {
		trees += 1 + len(g.tables[i].secRoots)
	}
	tables := make([]Table, len(g.tables))
	heaps := make([]Heap, len(g.tables))
	btrees := make([]BTree, trees)
	secs := make([]*BTree, trees-len(g.tables))
	e.tableOrder = make([]*Table, len(g.tables))
	for i := range g.tables {
		ts := &g.tables[i]
		heaps[i] = Heap{pool: e.pool, file: ts.id}
		btrees[0] = BTree{pool: e.pool, file: ts.id + 1}
		t := &tables[i]
		*t = Table{
			Name:    ts.name,
			Schema:  ts.schema,
			id:      ts.id,
			heap:    &heaps[i],
			pkCol:   ts.pkCol,
			pk:      &btrees[0],
			secCols: ts.secCols,
			secs:    secs[:len(ts.secRoots):len(ts.secRoots)],
			engine:  e,
		}
		for j := range t.secs {
			btrees[1+j] = BTree{pool: e.pool, file: ts.id + 2 + uint32(j)}
			t.secs[j] = &btrees[1+j]
		}
		btrees = btrees[1+len(t.secs):]
		secs = secs[len(t.secs):]
		e.tables[ts.name] = t
		e.tableOrder[i] = t
	}
	g.mu.Lock()
	g.views = append(g.views, e)
	g.mu.Unlock()
	g.Rearm(e)
	return e
}

// Rearm rewinds a view created by NewView back to the sealed state:
// private pages and frames return to their free lists, the warm resident
// set is rebuilt over golden pages in sealed LRU order, and the meter
// and table cursors are restored. Steady-state Rearm allocates
// nothing, which is what makes replication attach effectively free.
// The view must be quiescent (no outstanding frame references).
func (g *Golden) Rearm(e *Engine) {
	g.mustBeOpen("Rearm")
	cow := e.store.(*cowStore)
	cow.reset()
	e.pool.dropAllFrames()
	for i := len(g.residents) - 1; i >= 0; i-- {
		id := g.residents[i]
		f := e.pool.takeFrame()
		*f = Frame{Page: g.store.pages.at(id), id: id, shared: true}
		e.pool.admit(f)
	}
	*e.meter = g.meter
	e.nextID = g.nextID
	for i := range g.tables {
		ts := &g.tables[i]
		t := e.tableOrder[i]
		t.heap.last = ts.heapLast
		t.heap.has = ts.heapHas
		t.heap.Rows = ts.heapRows
		t.pk.root = ts.pkRoot
		t.pk.size = ts.pkSize
		for j := range t.secs {
			t.secs[j].root = ts.secRoots[j]
			t.secs[j].size = ts.secSizes[j]
		}
	}
}

// Close ends the snapshot and recycles its memory: every view NewView
// built loses its frames and private pages, and the slabs behind those
// and the golden's own pages go back to slabPool, where the next
// population or view reuses them. Only a golden nobody attaches again
// may be closed, and no view may hold a pinned page. Afterwards NewView,
// Rearm and Digest panic, and a view's page reads fail: every page would
// otherwise alias recycled bytes. A second Close does nothing.
func (g *Golden) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.store.closed {
		return
	}
	for _, v := range g.views {
		for f := v.pool.lru.next; f != &v.pool.lru; f = f.next {
			if f.pins != 0 {
				panic(fmt.Sprintf("rubisdb: Close with page %v still pinned by a view", f.id))
			}
		}
	}
	for _, v := range g.views {
		cow := v.store.(*cowStore)
		v.pool.release()
		cow.reset()
		cow.slab.release()
	}
	g.views = nil
	g.store.slab.release()
	pageDirs.put(g.store.pages)
	g.store.pages = pageDir[Page]{}
	g.store.closed = true
}

// mustBeOpen panics when g was closed: its pages are recycled.
func (g *Golden) mustBeOpen(op string) {
	if g.store.closed {
		panic("rubisdb: " + op + " on a closed golden snapshot")
	}
}

// dropAllFrames evicts every resident frame without write-back,
// emptying its directory slot and recycling the frame structs through
// the free list. Used when rearming a view: its private changes are
// discarded by design (the store's reset recycles their pages).
func (b *BufferPool) dropAllFrames() {
	for f := b.lru.next; f != &b.lru; {
		next := f.next
		b.frames.unset(f.id)
		*f = Frame{next: b.freeFrame}
		b.freeFrame = f
		f = next
	}
	b.lru.next = &b.lru
	b.lru.prev = &b.lru
	b.resident = 0
}

// cowStore is the Store behind a view: the sealed golden pages, shared
// by every view, under a private overlay this view owns. Page serves the
// overlay first and falls back to the golden, reported shared; Own and
// Allocate fill the overlay, so a write never reaches the golden.
type cowStore struct {
	golden *MemStore
	priv   pageDir[Page]
	// privIDs lists priv's occupied slots in the order they were filled,
	// so reset recycles them in O(private) time and in a fixed order.
	privIDs []PageID
	slab    pageSlab
}

// putPriv records p as id's private page.
func (c *cowStore) putPriv(id PageID, p Page) {
	c.priv.set(id, p)
	c.privIDs = append(c.privIDs, id)
}

// reset discards the private overlay, recycling its buffers, which
// returns PageCount to the golden's lengths.
func (c *cowStore) reset() {
	for _, id := range c.privIDs {
		c.slab.free = append(c.slab.free, c.priv.at(id))
	}
	c.privIDs = c.privIDs[:0]
	c.priv.truncate()
}

// Page implements Store: a private page if the view owns one, else the
// shared golden page.
func (c *cowStore) Page(id PageID) (Page, bool, error) {
	if p := c.priv.at(id); p != nil {
		return p, false, nil
	}
	if p := c.golden.pages.at(id); p != nil {
		return p, true, nil
	}
	if c.golden.closed {
		return nil, false, fmt.Errorf("rubisdb: read of page %v from a closed golden snapshot", id)
	}
	return nil, false, fmt.Errorf("rubisdb: page %v not found", id)
}

// Own implements Store: the copy-on-write fault, one golden page copied
// into a private page.
func (c *cowStore) Own(id PageID) Page {
	p := c.slab.take()
	copy(p, c.golden.pages.at(id))
	c.putPriv(id, p)
	return p
}

// WriteBack implements Store: dirty frames are private pages the view
// already owns, so nothing moves. A page that neither the golden nor the
// view allocated is an error.
func (c *cowStore) WriteBack(id PageID) error {
	if c.priv.at(id) == nil && c.golden.pages.at(id) == nil {
		return fmt.Errorf("rubisdb: write of unallocated page %v", id)
	}
	return nil
}

// Allocate implements Store: new pages extend the view privately. The
// buffer is cleared because recycled pages carry stale bytes.
func (c *cowStore) Allocate(file uint32) (PageID, Page) {
	if c.golden.closed {
		panic(fmt.Sprintf("rubisdb: Allocate in file %d on a view of a closed golden snapshot", file))
	}
	id := PageID{File: file, PageNo: c.PageCount(file)}
	p := c.slab.take()
	clear(p)
	c.putPriv(id, p)
	return id, p
}

// PageCount reports allocated pages in file (golden plus private
// growth): private pages past the golden's end extend the file.
func (c *cowStore) PageCount(file uint32) uint32 {
	return max(c.golden.pages.length(file), c.priv.length(file))
}
