package rubisdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// ColType is a column type.
type ColType int

// Column types supported by the RUBiS schema.
const (
	TInt64 ColType = iota
	TFloat64
	TString
)

// Column describes one schema column.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered column list.
type Schema []Column

// ColIndex returns the position of the named column or an error.
func (s Schema) ColIndex(name string) (int, error) {
	for i, c := range s {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("rubisdb: no column %q", name)
}

// Row is one tuple; element i must match Schema[i].Type (int64, float64,
// or string).
type Row []any

// EncodeRow serializes row against schema. Int64 and Float64 are 8 bytes
// big-endian; strings are length-prefixed (u16).
func EncodeRow(schema Schema, row Row) ([]byte, error) {
	return AppendRow(schema, nil, row)
}

// AppendRow serializes row against schema, appending to dst and
// returning the extended buffer. Every storage-side consumer of a tuple
// copies it (pages, the WAL framing buffer), so hot paths pass a reused
// scratch buffer and encode without allocating.
func AppendRow(schema Schema, dst []byte, row Row) ([]byte, error) {
	if len(row) != len(schema) {
		return nil, fmt.Errorf("rubisdb: row arity %d != schema arity %d", len(row), len(schema))
	}
	out := dst
	for i, col := range schema {
		switch col.Type {
		case TInt64:
			v, ok := row[i].(int64)
			if !ok {
				return nil, fmt.Errorf("rubisdb: column %q wants int64, got %T", col.Name, row[i])
			}
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(v))
			out = append(out, b[:]...)
		case TFloat64:
			v, ok := row[i].(float64)
			if !ok {
				return nil, fmt.Errorf("rubisdb: column %q wants float64, got %T", col.Name, row[i])
			}
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
			out = append(out, b[:]...)
		case TString:
			v, ok := row[i].(string)
			if !ok {
				return nil, fmt.Errorf("rubisdb: column %q wants string, got %T", col.Name, row[i])
			}
			if len(v) > 0xFFFF {
				return nil, fmt.Errorf("rubisdb: column %q string too long (%d)", col.Name, len(v))
			}
			var b [2]byte
			binary.BigEndian.PutUint16(b[:], uint16(len(v)))
			out = append(out, b[:]...)
			out = append(out, v...)
		default:
			return nil, fmt.Errorf("rubisdb: column %q has unknown type %d", col.Name, col.Type)
		}
	}
	return out, nil
}

// DecodeRow parses a tuple serialized by EncodeRow.
func DecodeRow(schema Schema, data []byte) (Row, error) {
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

// validateTuple accepts exactly the tuples DecodeRow accepts, with the
// same errors, but decodes nothing and allocates only on failure.
func validateTuple(schema Schema, data []byte) error {
	off := 0
	for _, col := range schema {
		switch col.Type {
		case TInt64, TFloat64:
			if off+8 > len(data) {
				return fmt.Errorf("rubisdb: truncated tuple at column %q", col.Name)
			}
			off += 8
		case TString:
			if off+2 > len(data) {
				return fmt.Errorf("rubisdb: truncated tuple at column %q", col.Name)
			}
			n := int(binary.BigEndian.Uint16(data[off:]))
			off += 2
			if off+n > len(data) {
				return fmt.Errorf("rubisdb: truncated string at column %q", col.Name)
			}
			off += n
		}
	}
	if off != len(data) {
		return fmt.Errorf("rubisdb: %d trailing bytes after tuple", len(data)-off)
	}
	return nil
}

// colOffset returns the byte offset of column col in a validated tuple.
func colOffset(schema Schema, data []byte, col int) int {
	off := 0
	for _, c := range schema[:col] {
		switch c.Type {
		case TInt64, TFloat64:
			off += 8
		case TString:
			off += 2 + int(binary.BigEndian.Uint16(data[off:]))
		}
	}
	return off
}

// Tuple is a borrowed view of one stored row, already validated against
// its table's schema. It aliases the pinned heap page, so it is valid
// only inside the ReadBy or ReadByPK callback that receives it: copy out
// anything that must outlive the callback.
type Tuple struct {
	schema Schema
	data   []byte
}

// Bytes returns the row's encoded bytes (borrowed, like the Tuple).
func (t Tuple) Bytes() []byte { return t.data }

// Int returns int64 column col; it panics when col is not an int64
// column.
func (t Tuple) Int(col int) int64 {
	if t.schema[col].Type != TInt64 {
		panic(fmt.Sprintf("rubisdb: column %q is not int64", t.schema[col].Name))
	}
	return int64(binary.BigEndian.Uint64(t.data[colOffset(t.schema, t.data, col):]))
}

// Table is a heap file with a unique int64 primary key index and any
// number of (non-unique) int64 secondary indexes.
type Table struct {
	Name   string
	Schema Schema

	id      uint32
	heap    *Heap
	pkCol   int
	pk      *BTree
	secCols []int
	secs    []*BTree

	engine *Engine
	// rowScratch is the reused tuple-encoding buffer for this table's
	// write paths; safe because pages and the WAL copy the bytes.
	rowScratch []byte
	// ridScratch is ReadBy's reused list of matching RIDs.
	ridScratch []RID
}

// walInsert and walUpdate are WAL op codes.
const (
	walInsert = 1
	walUpdate = 2
)

// encode serializes row into the table's reused scratch buffer. The
// returned slice is valid until the next encode on this table.
func (t *Table) encode(row Row) ([]byte, error) {
	buf, err := AppendRow(t.Schema, t.rowScratch[:0], row)
	if err != nil {
		return nil, err
	}
	t.rowScratch = buf
	return buf, nil
}

// Insert validates and stores row, maintaining all indexes, and returns
// its RID.
func (t *Table) Insert(row Row) (RID, error) {
	tuple, err := t.encode(row)
	if err != nil {
		return RID{}, fmt.Errorf("table %s: %w", t.Name, err)
	}
	key, ok := row[t.pkCol].(int64)
	if !ok {
		return RID{}, fmt.Errorf("table %s: primary key must be int64", t.Name)
	}
	if _, found, err := t.lookupPK(key); err != nil {
		return RID{}, err
	} else if found {
		return RID{}, fmt.Errorf("table %s: duplicate primary key %d", t.Name, key)
	}
	rid, err := t.heap.Insert(tuple)
	if err != nil {
		return RID{}, err
	}
	if err := t.pk.Insert(key, rid.Encode()); err != nil {
		return RID{}, err
	}
	for i, col := range t.secCols {
		sk, ok := row[col].(int64)
		if !ok {
			return RID{}, fmt.Errorf("table %s: secondary key column %d must be int64", t.Name, col)
		}
		if err := t.secs[i].Insert(sk, rid.Encode()); err != nil {
			return RID{}, err
		}
	}
	t.engine.meter.RowsWritten++
	t.engine.wal.AppendRecord(t.id, walInsert, tuple)
	return rid, nil
}

// entrySort holds the counting sort's scratch, so one BulkWriter.Close
// reuses it across all of a table's secondary indexes.
type entrySort struct {
	counts []int32
	out    []Entry
}

// sortEntriesByKey sorts index entries by (Key, Value). A BulkWriter
// appends entries in strictly increasing Value (RID) order, so any
// stable sort by Key alone yields the full (Key, Value) order; when the
// key range is dense — secondary keys are row ids drawn from a bounded
// id space — a stable counting sort replaces the O(n log n) comparison
// sort that used to dominate dataset population. Sparse or negative key
// ranges fall back to the comparison sort.
func (s *entrySort) sortEntriesByKey(entries []Entry) {
	if len(entries) < 64 {
		slices.SortFunc(entries, compareEntries)
		return
	}
	lo, hi := entries[0].Key, entries[0].Key
	for _, e := range entries[1:] {
		if e.Key < lo {
			lo = e.Key
		}
		if e.Key > hi {
			hi = e.Key
		}
	}
	// Unsigned subtraction is exact for any int64 pair with hi >= lo,
	// so a span wider than int64 (lo near MinInt64, hi near MaxInt64)
	// falls through to the comparison sort instead of wrapping.
	span := uint64(hi) - uint64(lo)
	if span > uint64(4*len(entries))+1024 {
		slices.SortFunc(entries, compareEntries)
		return
	}
	counts := grow(s.counts[:0], int(span)+2)
	s.counts = counts
	for _, e := range entries {
		counts[uint64(e.Key)-uint64(lo)+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	out := slices.Grow(s.out[:0], len(entries))[:len(entries)]
	s.out = out
	for _, e := range entries {
		c := uint64(e.Key) - uint64(lo)
		out[counts[c]] = e
		counts[c]++
	}
	copy(entries, out)
}

// compareEntries orders index entries by (Key, Value) with an explicit
// short-circuit: the generic cmp.Or(cmp.Compare, cmp.Compare) form
// evaluates both comparisons on every call, which shows up hard in the
// bulk-load sort of every replication's dataset population.
func compareEntries(a, b Entry) int {
	if a.Key != b.Key {
		if a.Key < b.Key {
			return -1
		}
		return 1
	}
	if a.Value != b.Value {
		if a.Value < b.Value {
			return -1
		}
		return 1
	}
	return 0
}

// lookupPK returns the RID stored under the primary key. Like
// BTree.Search it scans the whole key run instead of stopping at the
// first match: the run's end shows only on the next entry, which may sit
// on the next leaf, and that page touch is part of the metered work.
func (t *Table) lookupPK(key int64) (rid RID, found bool, err error) {
	err = t.pk.ScanRange(key, key, func(_ int64, v uint64) bool {
		if !found {
			rid, found = DecodeRID(v), true
		}
		return true
	})
	return rid, found && err == nil, err
}

// pin fetches the row at rid, meters it as one row read of its encoded
// bytes, and validates it. It returns the heap page pinned; the caller
// unpins the frame once it is done with the tuple.
func (t *Table) pin(rid RID) (*Frame, Tuple, error) {
	f, cell, err := t.heap.pin(rid)
	if err != nil {
		return nil, Tuple{}, err
	}
	t.engine.meter.RowsRead++
	t.engine.meter.BytesOut += float64(len(cell))
	if err := validateTuple(t.Schema, cell); err != nil {
		f.Unpin(false)
		return nil, Tuple{}, err
	}
	return f, Tuple{schema: t.Schema, data: cell}, nil
}

// ReadByPK calls fn on the row with the given primary key and reports
// whether it exists. fn may be nil when only the metered work matters.
// fn runs while the row's heap page is pinned: it must not call back
// into the engine, and the Tuple is valid only until it returns.
func (t *Table) ReadByPK(key int64, fn func(Tuple)) (bool, error) {
	rid, found, err := t.lookupPK(key)
	if !found {
		return false, err
	}
	f, tu, err := t.pin(rid)
	if err != nil {
		return false, err
	}
	if fn != nil {
		fn(tu)
	}
	f.Unpin(false)
	return true, nil
}

// ReadBy calls fn(i, tuple) for each of up to limit rows (limit <= 0
// means unlimited) whose indexed column equals key, in index order, and
// returns how many rows it visited. The column must be the primary key
// or carry a secondary index. The index is scanned into the table's
// reused RID list before any row is fetched, so index and heap page
// touches never interleave. fn may be nil, and obeys ReadByPK's rules.
func (t *Table) ReadBy(column string, key int64, limit int, fn func(i int, tu Tuple)) (int, error) {
	tree, err := t.indexFor(column)
	if err != nil {
		return 0, err
	}
	rids := t.ridScratch[:0]
	err = tree.ScanRange(key, key, func(_ int64, v uint64) bool {
		rids = append(rids, DecodeRID(v))
		return limit <= 0 || len(rids) < limit
	})
	t.ridScratch = rids
	if err != nil {
		return 0, err
	}
	for i, rid := range rids {
		f, tu, err := t.pin(rid)
		if err != nil {
			return i, err
		}
		if fn != nil {
			fn(i, tu)
		}
		f.Unpin(false)
	}
	return len(rids), nil
}

// CountBy counts index entries with lo <= column <= hi without fetching
// rows (an index-only scan).
func (t *Table) CountBy(column string, lo, hi int64) (int, error) {
	tree, err := t.indexFor(column)
	if err != nil {
		return 0, err
	}
	n := 0
	err = tree.ScanRange(lo, hi, func(int64, uint64) bool {
		n++
		return true
	})
	return n, err
}

func (t *Table) indexFor(column string) (*BTree, error) {
	ci, err := t.Schema.ColIndex(column)
	if err != nil {
		return nil, err
	}
	if ci == t.pkCol {
		return t.pk, nil
	}
	for i, col := range t.secCols {
		if col == ci {
			return t.secs[i], nil
		}
	}
	return nil, fmt.Errorf("rubisdb: table %s has no index on %q", t.Name, column)
}

// NumericUpdate sets one fixed-width column of a row: Int for an int64
// column, Float for a float64 column. The field that does not match the
// column's type must stay zero.
type NumericUpdate struct {
	Col   int
	Int   int64
	Float float64
}

// UpdateNumeric overwrites fixed-width (int64/float64) columns of the row
// with the given primary key. Indexed columns cannot be changed — the
// RUBiS write paths only touch unindexed numerics (price, counters). The
// stored row is read once (metered like ReadByPK), patched in the
// table's scratch buffer and written back in place.
func (t *Table) UpdateNumeric(key int64, updates ...NumericUpdate) error {
	rid, found, err := t.lookupPK(key)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("table %s: no row with pk %d", t.Name, key)
	}
	f, tu, err := t.pin(rid)
	if err != nil {
		return err
	}
	tuple := append(t.rowScratch[:0], tu.data...)
	f.Unpin(false)
	t.rowScratch = tuple
	for _, u := range updates {
		if err := t.checkNumericUpdate(u); err != nil {
			return err
		}
		bits := uint64(u.Int)
		if t.Schema[u.Col].Type == TFloat64 {
			bits = math.Float64bits(u.Float)
		}
		binary.BigEndian.PutUint64(tuple[colOffset(t.Schema, tuple, u.Col):], bits)
	}
	if err := t.heap.UpdateInPlace(rid, tuple); err != nil {
		return err
	}
	t.engine.meter.RowsWritten++
	t.engine.wal.AppendRecord(t.id, walUpdate, tuple)
	return nil
}

// checkNumericUpdate rejects updates of the primary key, indexed
// columns, string columns, and values set in the field that does not
// match the column's type.
func (t *Table) checkNumericUpdate(u NumericUpdate) error {
	if u.Col < 0 || u.Col >= len(t.Schema) {
		return fmt.Errorf("table %s: no column %d", t.Name, u.Col)
	}
	name := t.Schema[u.Col].Name
	if u.Col == t.pkCol {
		return fmt.Errorf("table %s: cannot update primary key", t.Name)
	}
	if slices.Contains(t.secCols, u.Col) {
		return fmt.Errorf("table %s: cannot update indexed column %q", t.Name, name)
	}
	switch t.Schema[u.Col].Type {
	case TInt64:
		if u.Float != 0 {
			return fmt.Errorf("table %s: update of int64 column %q sets Float", t.Name, name)
		}
	case TFloat64:
		if u.Int != 0 {
			return fmt.Errorf("table %s: update of float64 column %q sets Int", t.Name, name)
		}
	default:
		return fmt.Errorf("table %s: UpdateNumeric cannot update string column %q", t.Name, name)
	}
	return nil
}

// Rows reports the stored tuple count.
func (t *Table) Rows() int { return t.heap.Rows }
