package rubisdb

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// B+tree index over (int64 key, uint64 value) pairs, stored in buffer
// pool pages. Duplicate keys are supported by ordering entries on the
// composite (key, value); secondary indexes rely on this.
//
// Keys are stored in an order-preserving encoding — big-endian with the
// sign bit flipped — so every comparison on the hot path is a raw
// uint64 compare with no int64 conversion, and composite order is plain
// lexicographic order on the (encodedKey, value) uint64 pair. Node
// search is binary throughout.
//
// Node page layout (fixed-format, not slotted):
//
//	byte 0      node type: 0 leaf, 1 internal
//	bytes 1..2  entry count (u16)
//	bytes 3..6  leaf only: next-leaf page number (u32), ^0 for none
//	byte 7      reserved
//	byte 8...   entries
//
// Leaf entry: encoded key u64 | value u64 (16 bytes). Internal layout:
// child0 u32 followed by (encoded key u64 | value u64 | child u32)
// repeated (20 bytes each); separator i is the smallest composite
// (key, value) in child i+1's subtree. Separators carry the full
// composite so that a duplicate-key run spanning a leaf split still
// routes lookups to the leftmost leaf holding the key.
const (
	nodeLeaf     = 0
	nodeInternal = 1

	btHeader   = 8
	leafEntry  = 16
	leafMax    = (PageSize - btHeader) / leafEntry
	innerEntry = 20
	innerMax   = (PageSize - btHeader - 4) / innerEntry
	noNext     = ^uint32(0)

	// leafBulkFill is the leaf fill target for BulkLoad: slightly below
	// leafMax (InnoDB-style 15/16) so post-load inserts don't split on
	// first touch.
	leafBulkFill = leafMax - leafMax/16
)

// signFlip maps int64 order onto uint64 order.
const signFlip = 1 << 63

func encodeKey(k int64) uint64 { return uint64(k) ^ signFlip }
func decodeKey(e uint64) int64 { return int64(e ^ signFlip) }

// BTree is a B+tree index backed by a buffer pool file.
type BTree struct {
	pool *BufferPool
	file uint32
	root PageID
	size int
}

// create makes t an empty tree in file, rooted at a fresh leaf page.
func (t *BTree) create(pool *BufferPool, file uint32) error {
	f, err := pool.NewPage(file)
	if err != nil {
		return err
	}
	initLeaf(f.Page)
	id := f.ID()
	f.Unpin(true)
	*t = BTree{pool: pool, file: file, root: id}
	return nil
}

// Len reports the number of stored entries.
func (t *BTree) Len() int { return t.size }

// initLeaf and initInternal only reset the 8-byte node header; bytes
// past the entry count are never read, so stale entry bytes are
// harmless (and deterministic for a deterministic op sequence).
func initLeaf(p Page) {
	p[0] = nodeLeaf
	p[1], p[2] = 0, 0
	binary.BigEndian.PutUint32(p[3:7], noNext)
	p[7] = 0
}

func initInternal(p Page) {
	p[0] = nodeInternal
	p[1], p[2] = 0, 0
	binary.BigEndian.PutUint32(p[3:7], 0)
	p[7] = 0
}

func nodeCount(p Page) int         { return int(binary.BigEndian.Uint16(p[1:3])) }
func setNodeCount(p Page, n int)   { binary.BigEndian.PutUint16(p[1:3], uint16(n)) }
func leafNext(p Page) uint32       { return binary.BigEndian.Uint32(p[3:7]) }
func setLeafNext(p Page, v uint32) { binary.BigEndian.PutUint32(p[3:7], v) }

func leafRawKey(p Page, i int) uint64 {
	return binary.BigEndian.Uint64(p[btHeader+i*leafEntry:])
}
func leafVal(p Page, i int) uint64 {
	return binary.BigEndian.Uint64(p[btHeader+i*leafEntry+8:])
}
func setLeafEntry(p Page, i int, ek, v uint64) {
	off := btHeader + i*leafEntry
	binary.BigEndian.PutUint64(p[off:], ek)
	binary.BigEndian.PutUint64(p[off+8:], v)
}

// shiftLeafRight opens a one-entry hole at position pos in a leaf of n
// entries with a single bulk copy (entries are plain bytes).
func shiftLeafRight(p Page, pos, n int) {
	copy(p[btHeader+(pos+1)*leafEntry:btHeader+(n+1)*leafEntry],
		p[btHeader+pos*leafEntry:btHeader+n*leafEntry])
}

func innerChild(p Page, i int) uint32 {
	if i == 0 {
		return binary.BigEndian.Uint32(p[btHeader:])
	}
	return binary.BigEndian.Uint32(p[btHeader+4+(i-1)*innerEntry+16:])
}
func setInnerChild0(p Page, c uint32) { binary.BigEndian.PutUint32(p[btHeader:], c) }
func innerRawKey(p Page, i int) uint64 {
	return binary.BigEndian.Uint64(p[btHeader+4+i*innerEntry:])
}
func innerVal(p Page, i int) uint64 {
	return binary.BigEndian.Uint64(p[btHeader+4+i*innerEntry+8:])
}
func setInnerEntry(p Page, i int, ek, v uint64, child uint32) {
	off := btHeader + 4 + i*innerEntry
	binary.BigEndian.PutUint64(p[off:], ek)
	binary.BigEndian.PutUint64(p[off+8:], v)
	binary.BigEndian.PutUint32(p[off+16:], child)
}

// shiftInnerRight opens a one-entry hole at position pos among n inner
// separators with a single bulk copy.
func shiftInnerRight(p Page, pos, n int) {
	base := btHeader + 4
	copy(p[base+(pos+1)*innerEntry:base+(n+1)*innerEntry],
		p[base+pos*innerEntry:base+n*innerEntry])
}

// compLess orders composite (encodedKey, value) pairs.
func compLess(ak, av, bk, bv uint64) bool {
	if ak != bk {
		return ak < bk
	}
	return av < bv
}

// leafLowerBound returns the first index in the leaf whose composite is
// >= (ek, v).
func leafLowerBound(p Page, n int, ek, v uint64) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compLess(leafRawKey(p, mid), leafVal(p, mid), ek, v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// innerChildIndex returns the child to descend into for composite
// (ek, v): the number of separators <= (ek, v).
func innerChildIndex(p Page, n int, ek, v uint64) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if !compLess(ek, v, innerRawKey(p, mid), innerVal(p, mid)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds the (key, value) pair. Inserting an exact duplicate
// (key AND value) is rejected: it always indicates a primary-key or
// row-id collision upstream.
func (t *BTree) Insert(key int64, value uint64) error {
	sepK, sepV, newChild, err := t.insertInto(t.root, encodeKey(key), value)
	if err != nil {
		return err
	}
	if newChild != noNext {
		// Root split: build a new internal root.
		f, err := t.pool.NewPage(t.file)
		if err != nil {
			return err
		}
		initInternal(f.Page)
		setInnerChild0(f.Page, t.root.PageNo)
		setInnerEntry(f.Page, 0, sepK, sepV, newChild)
		setNodeCount(f.Page, 1)
		id := f.ID()
		f.Unpin(true)
		t.root = id
	}
	t.size++
	return nil
}

// insertInto descends into page id; on child split it returns the
// promoted separator composite and new right-sibling page number
// (noNext when no split happened). The node stays pinned across the
// recursive descent, so a split never re-fetches its parent.
func (t *BTree) insertInto(id PageID, ek, value uint64) (uint64, uint64, uint32, error) {
	f, err := t.pool.Get(id)
	if err != nil {
		return 0, 0, noNext, err
	}
	page := f.Page
	if page[0] == nodeLeaf {
		return t.insertLeaf(f, ek, value)
	}
	n := nodeCount(page)
	childIdx := innerChildIndex(page, n, ek, value)
	child := PageID{File: t.file, PageNo: innerChild(page, childIdx)}
	sepK, sepV, newChild, err := t.insertInto(child, ek, value)
	if err != nil || newChild == noNext {
		f.Unpin(false)
		return 0, 0, noNext, err
	}
	// The child split propagates an edit into this node; copy a shared
	// golden page before touching it.
	t.pool.Privatize(f)
	page = f.Page
	if n < innerMax {
		shiftInnerRight(page, childIdx, n)
		setInnerEntry(page, childIdx, sepK, sepV, newChild)
		setNodeCount(page, n+1)
		f.Unpin(true)
		return 0, 0, noNext, nil
	}
	// Internal split: gather separators, insert, split in half around a
	// promoted median.
	keys := make([]uint64, 0, n+1)
	vals := make([]uint64, 0, n+1)
	children := make([]uint32, 0, n+2)
	children = append(children, innerChild(page, 0))
	for i := 0; i < n; i++ {
		keys = append(keys, innerRawKey(page, i))
		vals = append(vals, innerVal(page, i))
		children = append(children, innerChild(page, i+1))
	}
	keys = slices.Insert(keys, childIdx, sepK)
	vals = slices.Insert(vals, childIdx, sepV)
	children = slices.Insert(children, childIdx+1, newChild)

	mid := len(keys) / 2
	upK, upV := keys[mid], vals[mid]
	rf, err := t.pool.NewPage(t.file)
	if err != nil {
		f.Unpin(false)
		return 0, 0, noNext, err
	}
	rpage := rf.Page
	initInternal(rpage)
	setInnerChild0(rpage, children[mid+1])
	for i := mid + 1; i < len(keys); i++ {
		setInnerEntry(rpage, i-mid-1, keys[i], vals[i], children[i+1])
	}
	setNodeCount(rpage, len(keys)-mid-1)
	rid := rf.ID()
	rf.Unpin(true)

	initInternal(page)
	setInnerChild0(page, children[0])
	for i := 0; i < mid; i++ {
		setInnerEntry(page, i, keys[i], vals[i], children[i+1])
	}
	setNodeCount(page, mid)
	f.Unpin(true)
	return upK, upV, rid.PageNo, nil
}

func (t *BTree) insertLeaf(f *Frame, ek, value uint64) (uint64, uint64, uint32, error) {
	page := f.Page
	n := nodeCount(page)
	pos := leafLowerBound(page, n, ek, value)
	if pos < n && leafRawKey(page, pos) == ek && leafVal(page, pos) == value {
		f.Unpin(false)
		return 0, 0, noNext, fmt.Errorf("rubisdb: duplicate index entry (%d,%d)", decodeKey(ek), value)
	}
	// Both remaining paths edit this leaf (in-place insert, or the left
	// half of a split); copy a shared golden page first.
	t.pool.Privatize(f)
	page = f.Page
	if n < leafMax {
		shiftLeafRight(page, pos, n)
		setLeafEntry(page, pos, ek, value)
		setNodeCount(page, n+1)
		f.Unpin(true)
		return 0, 0, noNext, nil
	}
	// Leaf split: distribute the n existing entries plus the new one so
	// the left leaf keeps mid entries, moving bytes with bulk copies
	// instead of per-entry decode/encode.
	rf, err := t.pool.NewPage(t.file)
	if err != nil {
		f.Unpin(false)
		return 0, 0, noNext, err
	}
	rpage := rf.Page
	initLeaf(rpage)
	mid := (n + 1) / 2
	if pos < mid {
		// New entry lands left: entries mid-1..n-1 move right.
		copy(rpage[btHeader:], page[btHeader+(mid-1)*leafEntry:btHeader+n*leafEntry])
		shiftLeafRight(page, pos, mid-1)
		setLeafEntry(page, pos, ek, value)
	} else {
		// New entry lands right between pos-1 and pos.
		k := pos - mid
		copy(rpage[btHeader:], page[btHeader+mid*leafEntry:btHeader+pos*leafEntry])
		setLeafEntry(rpage, k, ek, value)
		copy(rpage[btHeader+(k+1)*leafEntry:], page[btHeader+pos*leafEntry:btHeader+n*leafEntry])
	}
	setNodeCount(rpage, n+1-mid)
	setNodeCount(page, mid)
	setLeafNext(rpage, leafNext(page))
	sepK, sepV := leafRawKey(rpage, 0), leafVal(rpage, 0)
	rid := rf.ID()
	rf.Unpin(true)
	setLeafNext(page, rid.PageNo)
	f.Unpin(true)
	return sepK, sepV, rid.PageNo, nil
}

// findLeaf descends to the leaf that would hold composite (ek, v) and
// returns it pinned; the caller unpins.
func (t *BTree) findLeaf(ek, v uint64) (*Frame, error) {
	id := t.root
	for {
		f, err := t.pool.Get(id)
		if err != nil {
			return nil, err
		}
		if f.Page[0] == nodeLeaf {
			return f, nil
		}
		idx := innerChildIndex(f.Page, nodeCount(f.Page), ek, v)
		id = PageID{File: t.file, PageNo: innerChild(f.Page, idx)}
		f.Unpin(false)
	}
}

// ScanRange visits entries with lo <= key <= hi in order, calling fn for
// each; fn returning false stops the scan early.
func (t *BTree) ScanRange(lo, hi int64, fn func(key int64, value uint64) bool) error {
	if lo > hi {
		return nil
	}
	elo, ehi := encodeKey(lo), encodeKey(hi)
	// Value 0 is the minimal composite under elo, so the descent lands
	// on the leftmost leaf that can hold key lo.
	f, err := t.findLeaf(elo, 0)
	if err != nil {
		return err
	}
	start := leafLowerBound(f.Page, nodeCount(f.Page), elo, 0)
	for {
		page := f.Page
		n := nodeCount(page)
		for i := start; i < n; i++ {
			ek := leafRawKey(page, i)
			if ek > ehi {
				f.Unpin(false)
				return nil
			}
			if !fn(decodeKey(ek), leafVal(page, i)) {
				f.Unpin(false)
				return nil
			}
		}
		next := leafNext(page)
		f.Unpin(false)
		if next == noNext {
			return nil
		}
		f, err = t.pool.Get(PageID{File: t.file, PageNo: next})
		if err != nil {
			return err
		}
		start = 0
	}
}

// Entry is one (key, value) pair for BulkLoad.
type Entry struct {
	Key   int64
	Value uint64
}

// BulkLoad populates an empty tree from entries sorted ascending by
// composite (key, value) with no exact duplicates. Leaves are built
// left-to-right at leafBulkFill occupancy and internal levels are
// assembled bottom-up, so loading n entries costs O(n) page touches
// instead of n root-to-leaf descents. The dataset-population phase of
// every replication uses this through a Table's BulkWriter.
func (t *BTree) BulkLoad(entries []Entry) error {
	if t.size != 0 {
		return fmt.Errorf("rubisdb: BulkLoad needs an empty tree, have %d entries", t.size)
	}
	if len(entries) == 0 {
		return nil
	}
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1], entries[i]
		if a.Key > b.Key || (a.Key == b.Key && a.Value >= b.Value) {
			return fmt.Errorf("rubisdb: BulkLoad entries unsorted or duplicated at index %d", i)
		}
	}
	if err := t.bulkBuild(entries); err != nil {
		// A mid-build failure (pool exhaustion, store write error) may
		// have filled the reused root leaf or built orphan levels.
		// Restore the root to an empty leaf so the tree stays a
		// consistent empty tree; already-built pages are leaked to the
		// store, like the error paths of an interrupted split.
		if f, rerr := t.pool.GetMut(t.root); rerr == nil {
			initLeaf(f.Page)
			f.Unpin(true)
		}
		return err
	}
	t.size = len(entries)
	return nil
}

// nodeRef carries one node bulkBuild built up to its parent level: the
// smallest composite in its subtree plus its page number.
type nodeRef struct {
	ek, v uint64
	page  uint32
}

// nodeRefPool recycles bulkBuild's level lists across the trees of a
// population. It holds *[]nodeRef, so a Put boxes nothing.
var nodeRefPool sync.Pool

// bulkBuild constructs the leaf chain and internal levels for BulkLoad,
// updating t.root only after the whole tree exists.
func (t *BTree) bulkBuild(entries []Entry) error {
	refs, ok := nodeRefPool.Get().(*[]nodeRef)
	if !ok {
		refs = new([]nodeRef)
	}
	defer nodeRefPool.Put(refs)
	level := slices.Grow((*refs)[:0], (len(entries)+leafBulkFill-1)/leafBulkFill)
	*refs = level

	// Leaf level. The previous leaf stays pinned until the current one
	// exists so its next pointer can be chained (needs pool capacity 2).
	var prev *Frame
	for off := 0; off < len(entries); {
		n := min(leafBulkFill, len(entries)-off)
		var f *Frame
		var err error
		if off == 0 {
			// Reuse the empty root page as the first leaf (GetMut: it is
			// about to be rewritten, and may be a shared golden page).
			f, err = t.pool.GetMut(t.root)
			if err == nil && (f.Page[0] != nodeLeaf || nodeCount(f.Page) != 0) {
				f.Unpin(false)
				err = fmt.Errorf("rubisdb: BulkLoad needs a fresh tree (root is not an empty leaf)")
			}
		} else {
			f, err = t.pool.NewPage(t.file)
		}
		if err != nil {
			if prev != nil {
				prev.Unpin(true)
			}
			return err
		}
		initLeaf(f.Page)
		for j := 0; j < n; j++ {
			setLeafEntry(f.Page, j, encodeKey(entries[off+j].Key), entries[off+j].Value)
		}
		setNodeCount(f.Page, n)
		if prev != nil {
			setLeafNext(prev.Page, f.ID().PageNo)
			prev.Unpin(true)
		}
		level = append(level, nodeRef{encodeKey(entries[off].Key), entries[off].Value, f.ID().PageNo})
		prev = f
		off += n
	}
	prev.Unpin(true)

	// Internal levels, bottom-up until one root remains. Each level is
	// built in place over the one below: a node's ref is written only
	// after its group, which starts at or beyond the write, was read.
	for len(level) > 1 {
		next := level[:0]
		for i := 0; i < len(level); {
			take := min(innerMax+1, len(level)-i)
			if len(level)-i-take == 1 {
				// Never leave a trailing separator-less node.
				take--
			}
			group := level[i : i+take]
			f, err := t.pool.NewPage(t.file)
			if err != nil {
				return err
			}
			initInternal(f.Page)
			setInnerChild0(f.Page, group[0].page)
			for j := 1; j < len(group); j++ {
				setInnerEntry(f.Page, j-1, group[j].ek, group[j].v, group[j].page)
			}
			setNodeCount(f.Page, len(group)-1)
			pn := f.ID().PageNo
			f.Unpin(true)
			next = append(next, nodeRef{group[0].ek, group[0].v, pn})
			i += take
		}
		level = next
	}
	t.root = PageID{File: t.file, PageNo: level[0].page}
	return nil
}
