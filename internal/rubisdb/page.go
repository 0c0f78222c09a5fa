// Package rubisdb implements the storage engine that stands in for the
// paper's MySQL back end: 8 KB slotted pages, an LRU buffer pool, B+tree
// indexes, a write-ahead log, and a table layer with typed tuples.
//
// Every query the RUBiS application model issues actually executes here.
// The engine meters its own work (pages touched, buffer misses, WAL
// bytes, rows and bytes produced) and the tier model converts those
// receipts into simulated CPU, disk, and network demand — so the DB
// tier's demand shape in the reproduced figures emerges from real engine
// mechanics (buffer-pool warmup, journaled writes) rather than from a
// hand-drawn curve.
package rubisdb

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PageSize is the on-disk page size in bytes (InnoDB-like 8 KB here).
const PageSize = 8192

// pageHeaderSize reserves bytes for slot count and free-space pointers.
const pageHeaderSize = 6

// Page is a slotted page: a 2-byte slot directory grows from the front,
// cell payloads grow from the back.
//
// Layout: [nSlots u16][freeStart u16][freeEnd u16][slot offsets u16...]
// ... free space ... [cells].
type Page []byte

// initHeader resets the slot header of a zeroed page: no slots, all
// space between the header and the page end free. The buffer pool uses
// it on every page a store allocates, so the layout lives only here.
func (p Page) initHeader() {
	p.setNSlots(0)
	p.setFreeStart(pageHeaderSize)
	p.setFreeEnd(PageSize)
}

func (p Page) nSlots() int        { return int(binary.BigEndian.Uint16(p[0:2])) }
func (p Page) setNSlots(n int)    { binary.BigEndian.PutUint16(p[0:2], uint16(n)) }
func (p Page) freeStart() int     { return int(binary.BigEndian.Uint16(p[2:4])) }
func (p Page) setFreeStart(v int) { binary.BigEndian.PutUint16(p[2:4], uint16(v)) }
func (p Page) freeEnd() int       { return int(binary.BigEndian.Uint16(p[4:6])) }
func (p Page) setFreeEnd(v int)   { binary.BigEndian.PutUint16(p[4:6], uint16(v)) }
func (p Page) slotOffset(i int) int {
	return int(binary.BigEndian.Uint16(p[pageHeaderSize+2*i:]))
}
func (p Page) setSlotOffset(i, off int) {
	binary.BigEndian.PutUint16(p[pageHeaderSize+2*i:], uint16(off))
}

// FreeSpace reports the bytes available for one more cell (including its
// slot entry).
func (p Page) FreeSpace() int {
	free := p.freeEnd() - p.freeStart() - 2
	if free < 0 {
		return 0
	}
	return free
}

// errPageFull is InsertCell's error for a cell that does not fit. A
// heap meets it every time its last page fills, so it is a sentinel
// rather than a fresh error per page.
var errPageFull = errors.New("rubisdb: page full")

// InsertCell appends a cell and returns its slot index. It returns
// errPageFull when the cell does not fit; callers allocate a fresh page
// then.
func (p Page) InsertCell(data []byte) (int, error) {
	if p.FreeSpace() < len(data)+2 { // 2 length bytes; FreeSpace counts the slot
		return 0, errPageFull
	}
	end := p.freeEnd()
	start := end - len(data) - 2
	binary.BigEndian.PutUint16(p[start:], uint16(len(data)))
	copy(p[start+2:], data)
	slot := p.nSlots()
	p.setSlotOffset(slot, start)
	p.setNSlots(slot + 1)
	p.setFreeStart(pageHeaderSize + 2*(slot+1))
	p.setFreeEnd(start)
	return slot, nil
}

// Cell returns the payload of slot i. The returned slice aliases the
// page; callers must copy before mutating.
func (p Page) Cell(i int) ([]byte, error) {
	if i < 0 || i >= p.nSlots() {
		return nil, fmt.Errorf("rubisdb: slot %d out of range (page has %d)", i, p.nSlots())
	}
	off := p.slotOffset(i)
	n := int(binary.BigEndian.Uint16(p[off:]))
	return p[off+2 : off+2+n], nil
}

// UpdateCellInPlace overwrites slot i with data of the same length.
// Variable-length updates are not needed by the RUBiS schema (updates
// touch fixed-width numeric columns only).
func (p Page) UpdateCellInPlace(i int, data []byte) error {
	old, err := p.Cell(i)
	if err != nil {
		return err
	}
	if len(old) != len(data) {
		return fmt.Errorf("rubisdb: in-place update size mismatch (%d != %d)", len(old), len(data))
	}
	copy(old, data)
	return nil
}
