package rubisdb

import "fmt"

// RID locates a tuple: page number and slot within the heap file.
// Encoded as uint64 (pageNo<<16 | slot) for storage in index values.
type RID struct {
	PageNo uint32
	Slot   uint16
}

// Encode packs the RID for use as a B+tree value.
func (r RID) Encode() uint64 { return uint64(r.PageNo)<<16 | uint64(r.Slot) }

// DecodeRID unpacks an encoded RID.
func DecodeRID(v uint64) RID {
	return RID{PageNo: uint32(v >> 16), Slot: uint16(v & 0xFFFF)}
}

// Heap is an append-only heap file of variable-length tuples.
type Heap struct {
	pool *BufferPool
	file uint32
	last PageID
	has  bool
	// Rows counts stored tuples.
	Rows int
}

// Insert appends a tuple and returns its RID.
func (h *Heap) Insert(tuple []byte) (RID, error) {
	if len(tuple) > PageSize/2 {
		return RID{}, fmt.Errorf("rubisdb: tuple of %d bytes exceeds half page", len(tuple))
	}
	if h.has {
		f, err := h.pool.GetMut(h.last)
		if err != nil {
			return RID{}, err
		}
		if slot, err := f.Page.InsertCell(tuple); err == nil {
			f.Unpin(true)
			h.Rows++
			return RID{PageNo: h.last.PageNo, Slot: uint16(slot)}, nil
		}
		f.Unpin(false)
	}
	f, err := h.pool.NewPage(h.file)
	if err != nil {
		return RID{}, err
	}
	slot, err := f.Page.InsertCell(tuple)
	if err != nil {
		f.Unpin(false)
		return RID{}, err
	}
	id := f.ID()
	f.Unpin(true)
	h.last = id
	h.has = true
	h.Rows++
	return RID{PageNo: id.PageNo, Slot: uint16(slot)}, nil
}

// pin returns the tuple at rid aliasing its heap page, which stays
// pinned until the caller unpins the returned frame.
func (h *Heap) pin(rid RID) (*Frame, []byte, error) {
	f, err := h.pool.Get(PageID{File: h.file, PageNo: rid.PageNo})
	if err != nil {
		return nil, nil, err
	}
	cell, err := f.Page.Cell(int(rid.Slot))
	if err != nil {
		f.Unpin(false)
		return nil, nil, err
	}
	return f, cell, nil
}

// UpdateInPlace overwrites the tuple at rid with a same-length payload.
func (h *Heap) UpdateInPlace(rid RID, tuple []byte) error {
	f, err := h.pool.GetMut(PageID{File: h.file, PageNo: rid.PageNo})
	if err != nil {
		return err
	}
	err = f.Page.UpdateCellInPlace(int(rid.Slot), tuple)
	f.Unpin(err == nil)
	return err
}
