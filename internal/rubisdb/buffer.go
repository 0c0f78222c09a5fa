package rubisdb

import "fmt"

// PageID identifies a page within the engine: a file (table heap, index,
// ...) and a page number within it.
type PageID struct {
	File   uint32
	PageNo uint32
}

// Store is the backing page store. The simulation uses an in-memory
// store; the buffer pool's miss/flush traffic is what the tier model
// charges to the simulated disk.
type Store interface {
	// ReadInto copies the page into dst (len PageSize) without
	// allocating; it returns an error for never-written pages.
	ReadInto(id PageID, dst Page) error
	// Write persists the page.
	Write(id PageID, p Page) error
	// Allocate extends file with one zeroed page, returning its id.
	Allocate(file uint32) PageID
}

// pagesPerSlab sizes the slabs that page buffers are carved from: 1 MB
// slabs mean one large allocation per 128 pages instead of 128 small
// ones, which takes both the per-object malloc bookkeeping and most of
// the explicit zeroing (fresh large spans arrive pre-zeroed from the OS)
// off the dataset-population path.
const pagesPerSlab = 128

// pageSlab carves fixed-size, zeroed page buffers out of large slabs.
// Carved pages are never returned to the slab; recycling happens at the
// consumer (the buffer pool's free list, the store's per-id reuse).
type pageSlab struct {
	buf []byte
}

func (s *pageSlab) take() Page {
	if len(s.buf) < PageSize {
		s.buf = make([]byte, PageSize*pagesPerSlab)
	}
	p := Page(s.buf[:PageSize:PageSize])
	s.buf = s.buf[PageSize:]
	return p
}

// SharedPager is implemented by stores that can hand out stable,
// immutable page buffers the pool may alias directly instead of copying
// on a miss (the copy-on-write view store over a sealed golden
// snapshot). A page obtained this way must never be mutated through the
// frame; writers privatize first (BufferPool.GetMut / Privatize).
type SharedPager interface {
	// SharedPage returns the immutable buffer for id when the page is
	// still golden (not privately overwritten), or (nil, false) when the
	// caller must fall back to a copying ReadInto.
	SharedPage(id PageID) (Page, bool)
}

// MemStore is the in-memory Store. Pages are allocated in order from 0
// per file, so every slot below a file's length holds a page.
type MemStore struct {
	pages pageDir[Page]
	slab  pageSlab
	// sealed freezes the store as an immutable golden snapshot
	// (Engine.Seal); any further Write or Allocate is a bug in the
	// copy-on-write layer and panics rather than corrupting every view.
	sealed bool
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore { return &MemStore{} }

// ReadInto implements Store.
func (m *MemStore) ReadInto(id PageID, dst Page) error {
	p := m.pages.at(id)
	if p == nil {
		return fmt.Errorf("rubisdb: page %v not found", id)
	}
	copy(dst, p)
	return nil
}

// Read returns an owned copy of the page (a convenience for tests and
// tools; the pool's hot path uses ReadInto).
func (m *MemStore) Read(id PageID) (Page, error) {
	out := make(Page, PageSize)
	if err := m.ReadInto(id, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Write implements Store. The destination is the buffer Allocate gave
// the page, reused across write-backs, so steady-state eviction traffic
// does not allocate; a page that was never allocated is an error.
func (m *MemStore) Write(id PageID, p Page) error {
	if m.sealed {
		panic(fmt.Sprintf("rubisdb: Write of page %v to sealed golden store", id))
	}
	dst := m.pages.at(id)
	if dst == nil {
		return fmt.Errorf("rubisdb: write of unallocated page %v", id)
	}
	copy(dst, p)
	return nil
}

// Allocate implements Store.
func (m *MemStore) Allocate(file uint32) PageID {
	if m.sealed {
		panic(fmt.Sprintf("rubisdb: Allocate in file %d on sealed golden store", file))
	}
	id := PageID{File: file, PageNo: m.pages.length(file)}
	m.pages.set(id, m.slab.take())
	return id
}

// PageCount reports the number of allocated pages in file.
func (m *MemStore) PageCount(file uint32) uint32 { return m.pages.length(file) }

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

// Add accumulates other into m.
func (m *Meter) Add(other Meter) {
	m.PageHits += other.PageHits
	m.PageMisses += other.PageMisses
	m.PagesWritten += other.PagesWritten
	m.WALBytes += other.WALBytes
	m.RowsRead += other.RowsRead
	m.RowsWritten += other.RowsWritten
	m.BytesOut += other.BytesOut
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
// lookup. The frame (and its Page) is valid until Unpin; after the last
// pin is released the pool may evict and recycle it, so callers must
// capture ID() before unpinning if they still need it.
type Frame struct {
	// Page is the cached page image.
	Page Page

	id    PageID
	dirty bool
	// shared marks a frame whose Page aliases an immutable golden
	// snapshot buffer (see SharedPager): reads are free, but it must be
	// privatized (copied) before any mutation and its buffer is never
	// recycled into the pool's free lists.
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
// pages on eviction. Evicted frames and their page buffers park on free
// lists, so steady-state miss traffic allocates nothing.
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
	freePage  []Page
	slab      pageSlab
	// sharedSrc is non-nil when the store can serve zero-copy golden
	// pages (resolved once here so the miss path pays no type assertion).
	sharedSrc SharedPager
}

// NewBufferPool builds a pool of capacity pages over store, metering
// into meter.
func NewBufferPool(store Store, capacity int, meter *Meter) *BufferPool {
	if capacity < 1 {
		panic("rubisdb: buffer pool needs capacity >= 1")
	}
	b := &BufferPool{
		store:    store,
		capacity: capacity,
		meter:    meter,
	}
	b.sharedSrc, _ = store.(SharedPager)
	b.lru.next = &b.lru
	b.lru.prev = &b.lru
	return b
}

// Len reports resident pages.
func (b *BufferPool) Len() int { return b.resident }

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

func (b *BufferPool) takeFrame() *Frame {
	if f := b.freeFrame; f != nil {
		b.freeFrame = f.next
		f.next = nil
		return f
	}
	return &Frame{}
}

func (b *BufferPool) takePage() Page {
	if n := len(b.freePage); n > 0 {
		p := b.freePage[n-1]
		b.freePage = b.freePage[:n-1]
		return p
	}
	return b.slab.take()
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
	// A page still backed by an immutable golden snapshot is aliased
	// zero-copy; the miss is metered identically, so a view's hit/miss/
	// eviction stream matches a freshly populated pool byte for byte.
	if b.sharedSrc != nil {
		if p, ok := b.sharedSrc.SharedPage(id); ok {
			if err := b.makeRoom(); err != nil {
				return nil, err
			}
			f := b.takeFrame()
			*f = Frame{Page: p, id: id, pins: 1, shared: true}
			b.admit(f)
			return f, nil
		}
	}
	p := b.takePage()
	if err := b.store.ReadInto(id, p); err != nil {
		b.freePage = append(b.freePage, p)
		return nil, err
	}
	if err := b.makeRoom(); err != nil {
		b.freePage = append(b.freePage, p)
		return nil, err
	}
	f := b.takeFrame()
	*f = Frame{Page: p, id: id, pins: 1}
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

// Privatize converts a shared golden frame into a private copy the
// caller may mutate; private frames pass through untouched. This is the
// copy-on-write fault: one PageSize copy, only on first write.
func (b *BufferPool) Privatize(f *Frame) {
	if !f.shared {
		return
	}
	p := b.takePage()
	copy(p, f.Page)
	f.Page = p
	f.shared = false
}

// NewPage allocates a fresh page in file, resident, pinned, and dirty.
// The page comes back zeroed with an initialized slot header (see
// NewPage in page.go).
func (b *BufferPool) NewPage(file uint32) (*Frame, error) {
	id := b.store.Allocate(file)
	if err := b.makeRoom(); err != nil {
		return nil, err
	}
	p := b.takePage()
	clear(p)
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
			if err := b.store.Write(victim.id, victim.Page); err != nil {
				return err
			}
			b.meter.PagesWritten++
		}
		b.unlink(victim)
		b.frames.unset(victim.id)
		b.resident--
		// A shared frame aliases the immutable golden buffer: evicting it
		// must not feed that buffer into the free list where a later miss
		// would scribble over the snapshot.
		if !victim.shared {
			b.freePage = append(b.freePage, victim.Page)
		}
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
		if err := b.store.Write(f.id, f.Page); err != nil {
			return flushed, err
		}
		f.dirty = false
		b.meter.PagesWritten++
		flushed++
	}
	return flushed, nil
}

// check verifies the pool's bookkeeping: the resident count equals both
// the LRU list's length and the number of occupied directory slots, and
// every slot holds the frame of its own page id. A stale slot would hand
// a recycled frame to the next Get.
func (b *BufferPool) check() error {
	lru := 0
	for f := b.lru.next; f != &b.lru; f = f.next {
		lru++
		if b.frames.at(f.id) != f {
			return fmt.Errorf("rubisdb: resident page %v missing from the directory", f.id)
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

// HitRatio reports hits/(hits+misses), 0 when cold.
func (b *BufferPool) HitRatio() float64 {
	total := b.meter.PageHits + b.meter.PageMisses
	if total == 0 {
		return 0
	}
	return float64(b.meter.PageHits) / float64(total)
}
