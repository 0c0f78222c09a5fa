package rubisdb

import (
	"fmt"
	"sync"
)

// PageID identifies a page within the engine: a file (table heap, index,
// ...) and a page number within it.
type PageID struct {
	File   uint32
	PageNo uint32
}

// Store is the backing page store and the single owner of every page
// buffer: a resident frame's Page is the store's own buffer for its id,
// so a miss or a write-back moves no bytes. The simulation uses an
// in-memory store; the buffer pool's miss/flush traffic is what the tier
// model charges to the simulated disk.
type Store interface {
	// Page returns the store's buffer for id, or an error for a page no
	// Allocate handed out. shared marks an immutable buffer (a sealed
	// golden page under a view) that must be Owned before any write.
	Page(id PageID) (p Page, shared bool, err error)
	// Own returns a private buffer holding the bytes of the shared page
	// id, which the store owns from then on: a later Page(id) returns it
	// unshared. Only ids that Page reported shared may be Owned.
	Own(id PageID) Page
	// Allocate extends file with one zeroed page, returning its id and
	// buffer.
	Allocate(file uint32) (PageID, Page)
	// WriteBack is the pool flushing id's dirty buffer (the pool meters
	// it). The bytes already live in the store, so nothing moves; it
	// fails for a page no Allocate handed out.
	WriteBack(id PageID) error
}

// pagesPerSlab sizes the slabs that page buffers are carved from: 1 MB
// slabs mean one large allocation per 128 pages instead of 128 small
// ones, which takes the per-object malloc bookkeeping off the
// dataset-population path.
const pagesPerSlab = 128

// initialSlabs is the slab list's first capacity: 8 MB of pages before
// the list regrows, so a dataset of a few thousand pages lists its
// slabs in a couple of allocations rather than one per doubling.
const initialSlabs = 8

// slab is the backing array of pagesPerSlab page buffers.
type slab [PageSize * pagesPerSlab]byte

// slabPool recycles the slabs of closed golden snapshots (Golden.Close)
// and their views, so a sweep that populates a dataset per replication
// reuses the previous replication's ~17 MB of pages instead of asking
// the runtime for fresh, OS-zeroed spans every time. The pool needs no
// bound: the collector drains what sits idle in it.
var slabPool sync.Pool

// pageSlab hands a store fixed-size page buffers: recycled ones from
// free first, which carry stale bytes, then zeroed ones carved out of
// slabs. A slab drawn from slabPool is cleared before its first page is
// carved, so carved pages are zero whether the slab is fresh or
// recycled.
type pageSlab struct {
	buf  []byte
	free []Page
	// slabs lists every slab pages were carved from, for release.
	slabs []*slab
}

func (s *pageSlab) take() Page {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		return p
	}
	if len(s.buf) < PageSize {
		sl, ok := slabPool.Get().(*slab)
		if ok {
			clear(sl[:])
		} else {
			sl = new(slab)
		}
		if s.slabs == nil {
			s.slabs = make([]*slab, 0, initialSlabs)
		}
		s.slabs = append(s.slabs, sl)
		s.buf = sl[:]
	}
	p := Page(s.buf[:PageSize:PageSize])
	s.buf = s.buf[PageSize:]
	return p
}

// release hands every slab back to slabPool and empties s, keeping its
// lists' capacity. No page s handed out may be touched afterwards.
func (s *pageSlab) release() {
	for i, sl := range s.slabs {
		slabPool.Put(sl)
		s.slabs[i] = nil
	}
	s.slabs = s.slabs[:0]
	clear(s.free)
	s.free = s.free[:0]
	s.buf = nil
}

// MemStore is the in-memory Store. Pages are allocated in order from 0
// per file, so every slot below a file's length holds a page. No page
// is ever shared: the pool writes into the store's buffers directly.
type MemStore struct {
	pages pageDir[Page]
	slab  pageSlab
	// sealed freezes the store as an immutable golden snapshot
	// (Engine.Seal); any further WriteBack or Allocate is a bug in the
	// copy-on-write layer and panics rather than corrupting every view.
	sealed bool
	// closed marks a sealed store whose slabs Golden.Close recycled:
	// it holds no pages any more.
	closed bool
}

// NewMemStore returns an empty store. Its page directory is a recycled
// one when a closed golden left one behind (Golden.Close).
func NewMemStore() *MemStore { return &MemStore{pages: pageDirs.get()} }

// Page implements Store.
func (m *MemStore) Page(id PageID) (Page, bool, error) {
	p := m.pages.at(id)
	if p == nil {
		return nil, false, fmt.Errorf("rubisdb: page %v not found", id)
	}
	return p, false, nil
}

// Own implements Store; every MemStore page is already private.
func (m *MemStore) Own(id PageID) Page { return m.pages.at(id) }

// WriteBack implements Store.
func (m *MemStore) WriteBack(id PageID) error {
	if m.sealed {
		panic(fmt.Sprintf("rubisdb: write-back of page %v to sealed golden store", id))
	}
	if m.pages.at(id) == nil {
		return fmt.Errorf("rubisdb: write of unallocated page %v", id)
	}
	return nil
}

// Allocate implements Store. MemStore never frees a page, so every page
// comes freshly carved from a slab, and therefore zeroed.
func (m *MemStore) Allocate(file uint32) (PageID, Page) {
	if m.sealed {
		panic(fmt.Sprintf("rubisdb: Allocate in file %d on sealed golden store", file))
	}
	id := PageID{File: file, PageNo: m.pages.length(file)}
	p := m.slab.take()
	m.pages.set(id, p)
	return id, p
}

// Meter accumulates the engine's physical work. The tier model samples
// and differences it to derive the DB server's resource demand.
type Meter struct {
	// PageHits and PageMisses count buffer pool lookups.
	PageHits   uint64
	PageMisses uint64
	// PagesWritten counts dirty page write-backs.
	PagesWritten uint64
	// WALBytes counts write-ahead log appends.
	WALBytes float64
	// RowsRead and RowsWritten count tuple touches.
	RowsRead    uint64
	RowsWritten uint64
	// BytesOut counts result bytes produced for clients.
	BytesOut float64
}

// Sub returns m minus other (for window differencing).
func (m Meter) Sub(other Meter) Meter {
	return Meter{
		PageHits:     m.PageHits - other.PageHits,
		PageMisses:   m.PageMisses - other.PageMisses,
		PagesWritten: m.PagesWritten - other.PagesWritten,
		WALBytes:     m.WALBytes - other.WALBytes,
		RowsRead:     m.RowsRead - other.RowsRead,
		RowsWritten:  m.RowsWritten - other.RowsWritten,
		BytesOut:     m.BytesOut - other.BytesOut,
	}
}

// Frame is a pinned buffer-pool slot. Get and NewPage return the frame
// itself, so callers release their pin directly on it — no second map
// lookup. The frame is valid until Unpin; after the last pin is released
// the pool may evict and recycle it, so callers must capture ID() before
// unpinning if they still need it.
type Frame struct {
	// Page is the store's buffer for the page (see Store), not a copy.
	Page Page

	id    PageID
	dirty bool
	// shared marks a frame whose Page is an immutable golden snapshot
	// buffer: it must be privatized (Store.Own) before any mutation.
	shared bool
	pins   int
	// prev/next form the pool's intrusive LRU list while the frame is
	// resident (no container/list allocation or interface boxing per
	// touch); next doubles as the free-list link after eviction.
	prev, next *Frame
}

// ID reports which page the frame holds.
func (f *Frame) ID() PageID { return f.id }

// Unpin releases one pin, optionally marking the page dirty.
func (f *Frame) Unpin(dirty bool) {
	if f.pins <= 0 {
		panic(fmt.Sprintf("rubisdb: Unpin of unpinned page %v", f.id))
	}
	f.pins--
	if dirty {
		if f.shared {
			panic(fmt.Sprintf("rubisdb: page %v dirtied without Privatize (shared golden page)", f.id))
		}
		f.dirty = true
	}
}

// BufferPool caches pages with LRU replacement and write-back of dirty
// pages on eviction. It keeps no page buffers of its own: a frame
// borrows its store's buffer, so residency decides only what a lookup
// meters as a hit or a miss. Evicted frames park on a free list, so
// steady-state miss traffic allocates nothing.
type BufferPool struct {
	store    Store
	capacity int
	// frames holds each resident frame under its page id; resident
	// counts them. An evicted or dropped frame's slot must be emptied
	// before the frame is recycled, or a later Get would hit a frame now
	// holding another page.
	frames   pageDir[*Frame]
	resident int
	// lru is the intrusive list sentinel: lru.next is the most recently
	// used resident frame, lru.prev the eviction candidate.
	lru       Frame
	meter     *Meter
	freeFrame *Frame // singly linked through next
	// spare is the uncarved rest of the chunk new frames come from;
	// carved counts the frames handed out by chunks so far, and chunks
	// lists the full chunks, which release hands back to frameChunks.
	spare  []Frame
	carved int
	chunks []*frameChunk
}

// framesPerChunk sizes the chunks frames are carved from: a pool that
// fills up makes one allocation per 128 frames instead of one per
// resident page.
const framesPerChunk = 128

// frameChunk is the backing array of framesPerChunk frames.
type frameChunk [framesPerChunk]Frame

// frameChunks recycles the full chunks of released pools (a sealed
// engine's, and a closed golden's views'), zeroed, so the next
// population and view carve their frames from them.
var frameChunks sync.Pool

// NewBufferPool builds a pool of capacity pages over store, metering
// into meter. Its page directory is a recycled one when a released
// pool left one behind.
func NewBufferPool(store Store, capacity int, meter *Meter) *BufferPool {
	if capacity < 1 {
		panic("rubisdb: buffer pool needs capacity >= 1")
	}
	b := &BufferPool{
		store:    store,
		capacity: capacity,
		meter:    meter,
		frames:   frameDirs.get(),
	}
	b.lru.next = &b.lru
	b.lru.prev = &b.lru
	return b
}

func (b *BufferPool) pushFront(f *Frame) {
	f.prev = &b.lru
	f.next = b.lru.next
	f.prev.next = f
	f.next.prev = f
}

// admit makes f resident: most recently used, and found by Get.
func (b *BufferPool) admit(f *Frame) {
	b.pushFront(f)
	b.frames.set(f.id, f)
	b.resident++
}

func (b *BufferPool) unlink(f *Frame) {
	f.prev.next = f.next
	f.next.prev = f.prev
	f.prev, f.next = nil, nil
}

func (b *BufferPool) moveToFront(f *Frame) {
	if b.lru.next == f {
		return
	}
	f.prev.next = f.next
	f.next.prev = f.prev
	b.pushFront(f)
}

// takeFrame returns a zeroed frame: a recycled one from the free list,
// else the next one carved from the current chunk.
func (b *BufferPool) takeFrame() *Frame {
	if f := b.freeFrame; f != nil {
		b.freeFrame = f.next
		f.next = nil
		return f
	}
	if len(b.spare) == 0 {
		b.spare = b.newChunk()
	}
	f := &b.spare[0]
	b.spare = b.spare[1:]
	return f
}

// newChunk returns zeroed frames to carve from: a full chunk, recycled
// from frameChunks when one is there, while at least that many frames of
// the capacity are uncarved, and otherwise exactly the rest. Frames only
// leave a pool for its free list, and a pool holds at most capacity of
// them at once, so it never carves more than its capacity.
func (b *BufferPool) newChunk() []Frame {
	n := b.capacity - b.carved
	if n < framesPerChunk {
		n = max(n, 1)
		b.carved += n
		return make([]Frame, n)
	}
	c, ok := frameChunks.Get().(*frameChunk)
	if !ok {
		c = new(frameChunk)
	}
	if b.chunks == nil {
		b.chunks = make([]*frameChunk, 0, b.capacity/framesPerChunk)
	}
	b.chunks = append(b.chunks, c)
	b.carved += framesPerChunk
	return c[:]
}

// release hands the pool's full frame chunks back to frameChunks,
// zeroed, and its page directory to frameDirs, leaving the pool empty:
// every frame may belong to another pool from then on, so the pool
// keeps no reference to one. No frame of the pool may be pinned, and
// its owner must be done with it.
func (b *BufferPool) release() {
	for i, c := range b.chunks {
		*c = frameChunk{}
		frameChunks.Put(c)
		b.chunks[i] = nil
	}
	frameDirs.put(b.frames)
	*b = BufferPool{store: b.store, capacity: b.capacity, meter: b.meter}
	b.lru.next = &b.lru
	b.lru.prev = &b.lru
}

// Get pins the page into the pool, loading it on a miss (possibly
// evicting an unpinned LRU victim). Callers must Unpin the returned
// frame.
func (b *BufferPool) Get(id PageID) (*Frame, error) {
	if f := b.frames.at(id); f != nil {
		b.meter.PageHits++
		f.pins++
		b.moveToFront(f)
		return f, nil
	}
	b.meter.PageMisses++
	// The miss aliases the store's buffer, golden or private; it is
	// metered the same either way, so a view's hit/miss/eviction stream
	// matches a freshly populated pool byte for byte.
	p, shared, err := b.store.Page(id)
	if err != nil {
		return nil, err
	}
	if err := b.makeRoom(); err != nil {
		return nil, err
	}
	f := b.takeFrame()
	*f = Frame{Page: p, id: id, pins: 1, shared: shared}
	b.admit(f)
	return f, nil
}

// GetMut pins the page with write intent: like Get, but the returned
// frame is guaranteed private, copying a shared golden page on its first
// write. All mutation paths (heap appends, in-place updates, B-tree
// structural edits) go through GetMut or Privatize.
func (b *BufferPool) GetMut(id PageID) (*Frame, error) {
	f, err := b.Get(id)
	if err != nil {
		return nil, err
	}
	b.Privatize(f)
	return f, nil
}

// Privatize converts a shared golden frame into a private page the
// caller may mutate; private frames pass through untouched. This is the
// copy-on-write fault: one PageSize copy, only on the page's first write
// in the view, after which the store owns the private page.
func (b *BufferPool) Privatize(f *Frame) {
	if !f.shared {
		return
	}
	f.Page = b.store.Own(f.id)
	f.shared = false
}

// NewPage allocates a fresh page in file, resident, pinned, and dirty.
// The page comes back zeroed with an initialized slot header (see
// NewPage in page.go). Room is made first, so a NewPage on an exhausted
// pool fails without growing the file.
func (b *BufferPool) NewPage(file uint32) (*Frame, error) {
	if err := b.makeRoom(); err != nil {
		return nil, err
	}
	id, p := b.store.Allocate(file)
	p.initHeader()
	f := b.takeFrame()
	*f = Frame{Page: p, id: id, pins: 1, dirty: true}
	b.admit(f)
	return f, nil
}

func (b *BufferPool) makeRoom() error {
	for b.resident >= b.capacity {
		var victim *Frame
		for f := b.lru.prev; f != &b.lru; f = f.prev {
			if f.pins == 0 {
				victim = f
				break
			}
		}
		if victim == nil {
			return fmt.Errorf("rubisdb: buffer pool exhausted (%d pages, all pinned)", b.resident)
		}
		if victim.dirty {
			if err := b.store.WriteBack(victim.id); err != nil {
				return err
			}
			b.meter.PagesWritten++
		}
		b.unlink(victim)
		b.frames.unset(victim.id)
		b.resident--
		*victim = Frame{next: b.freeFrame}
		b.freeFrame = victim
	}
	return nil
}

// FlushAll writes every dirty resident page back to the store (checkpoint).
func (b *BufferPool) FlushAll() error {
	_, err := b.FlushLimit(b.resident)
	return err
}

// FlushLimit writes back at most limit dirty pages in LRU order (a fuzzy
// checkpoint with an io-capacity cap, as InnoDB's background writer
// does) and reports how many were flushed.
func (b *BufferPool) FlushLimit(limit int) (int, error) {
	flushed := 0
	for f := b.lru.prev; f != &b.lru && flushed < limit; f = f.prev {
		if !f.dirty {
			continue
		}
		if err := b.store.WriteBack(f.id); err != nil {
			return flushed, err
		}
		f.dirty = false
		b.meter.PagesWritten++
		flushed++
	}
	return flushed, nil
}

// check verifies a quiescent pool (no query in flight): the resident
// count equals both the LRU list's length and the number of occupied
// directory slots, and every slot holds the frame of its own page id (a
// stale slot would hand a recycled frame to the next Get). No frame is
// pinned, and each frame's Page is its store's own buffer for the id,
// shared exactly when the store reports it shared.
func (b *BufferPool) check() error {
	lru := 0
	for f := b.lru.next; f != &b.lru; f = f.next {
		lru++
		if b.frames.at(f.id) != f {
			return fmt.Errorf("rubisdb: resident page %v missing from the directory", f.id)
		}
		if f.pins != 0 {
			return fmt.Errorf("rubisdb: page %v left with %d pins", f.id, f.pins)
		}
		p, shared, err := b.store.Page(f.id)
		if err != nil {
			return err
		}
		if shared != f.shared || &p[0] != &f.Page[0] {
			return fmt.Errorf("rubisdb: frame of page %v (shared=%v) is not its store's buffer (shared=%v)", f.id, f.shared, shared)
		}
	}
	slots := 0
	for file, pages := range b.frames.files {
		for no, f := range pages {
			if f == nil {
				continue
			}
			slots++
			if want := (PageID{File: uint32(file), PageNo: uint32(no)}); f.id != want {
				return fmt.Errorf("rubisdb: directory slot %v holds frame of page %v", want, f.id)
			}
		}
	}
	if lru != b.resident || slots != b.resident {
		return fmt.Errorf("rubisdb: %d resident, but %d frames on the LRU list and %d directory slots", b.resident, lru, slots)
	}
	return nil
}
