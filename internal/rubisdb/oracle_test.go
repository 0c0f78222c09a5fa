package rubisdb

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Test-side constructors and readers: the engine builds trees and heaps
// inside tables and reads tuples through borrowed views, so these
// copying helpers exist only for tests.

// newBTree creates an empty tree in file.
func newBTree(pool *BufferPool, file uint32) (*BTree, error) {
	t := new(BTree)
	if err := t.create(pool, file); err != nil {
		return nil, err
	}
	return t, nil
}

// search returns all values stored under key, in value order.
func (t *BTree) search(key int64) ([]uint64, error) {
	var out []uint64
	err := t.ScanRange(key, key, func(k int64, v uint64) bool {
		out = append(out, v)
		return true
	})
	return out, err
}

// newHeap creates an empty heap in file.
func newHeap(pool *BufferPool, file uint32) *Heap {
	return &Heap{pool: pool, file: file}
}

// fetch returns a copy of the tuple at rid.
func (h *Heap) fetch(rid RID) ([]byte, error) {
	f, cell, err := h.pin(rid)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), cell...)
	f.Unpin(false)
	return out, nil
}

// Row is one decoded tuple: element i holds Schema[i]'s value as an
// int64, float64 or string.
type Row []any

// decodeRow parses a stored tuple (see rowEncoder for the format) into
// a Row. It is the reference decoder: FuzzTupleView and the
// validateTuple tests check the borrowed Tuple path against it.
func decodeRow(schema Schema, data []byte) (Row, error) {
	row := make(Row, 0, len(schema))
	off := 0
	for _, col := range schema {
		switch col.Type {
		case TInt64:
			if off+8 > len(data) {
				return nil, fmt.Errorf("rubisdb: truncated tuple at column %q", col.Name)
			}
			row = append(row, int64(binary.BigEndian.Uint64(data[off:])))
			off += 8
		case TFloat64:
			if off+8 > len(data) {
				return nil, fmt.Errorf("rubisdb: truncated tuple at column %q", col.Name)
			}
			row = append(row, math.Float64frombits(binary.BigEndian.Uint64(data[off:])))
			off += 8
		case TString:
			if off+2 > len(data) {
				return nil, fmt.Errorf("rubisdb: truncated tuple at column %q", col.Name)
			}
			n := int(binary.BigEndian.Uint16(data[off:]))
			off += 2
			if off+n > len(data) {
				return nil, fmt.Errorf("rubisdb: truncated string at column %q", col.Name)
			}
			row = append(row, string(data[off:off+n]))
			off += n
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("rubisdb: %d trailing bytes after tuple", len(data)-off)
	}
	return row, nil
}
