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

// validateTuple checks that a tuple matches its schema: every column
// is present and complete and no bytes trail the last one. It decodes
// nothing and allocates only on failure; on a malformed tuple it
// returns the error naming the first column that does not fit.
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
// only inside the Index.Read or ReadByPK callback that receives it: copy out
// anything that must outlive the callback.
type Tuple struct {
	schema Schema
	data   []byte
}

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
	// rowScratch is the tuple buffer the writers encode into and
	// UpdateNumeric patches; reusing it is safe because pages copy
	// the bytes. CreateTable sizes it to rowScratchCap.
	rowScratch []byte
	// ridScratch is Index.Read's reused list of matching RIDs.
	ridScratch []RID
	// writer is the table's single-row writer (see Writer).
	writer RowWriter
}

// rowEncoder is the one tuple encoder, shared by RowWriter and
// BulkWriter. A row is one typed append per schema column, in schema
// order, encoded straight into the table's scratch tuple: int64 and
// float64 as 8 bytes big-endian, strings length-prefixed (u16). The row's
// primary and secondary keys are captured as they pass, so no slice of
// values is built and no value is boxed. The first error (a value of
// the wrong type, a string over 0xFFFF bytes, a wrong arity at end)
// sticks until reset.
type rowEncoder struct {
	t   *Table
	err error
	// col counts the current row's appends, including any past the
	// schema's arity (end reports the full count).
	col int
	// key is the current row's primary key; secKeys its secondary keys,
	// in secCols order.
	key     int64
	secKeys []int64
}

// rowScratchCap is the tuple buffer a created table starts with: room
// for a row of a few short strings, so a bulk load does not regrow it
// row by row from empty. Longer rows still grow it.
const rowScratchCap = 512

// encoder returns a rowEncoder for t.
func (t *Table) encoder() rowEncoder {
	return rowEncoder{t: t, secKeys: make([]int64, len(t.secCols))}
}

// reset clears the error and drops any partial row.
func (e *rowEncoder) reset() {
	e.err, e.col = nil, 0
	e.t.rowScratch = e.t.rowScratch[:0]
}

// column claims the next column of the current row for a value of type
// typ. It returns the column's index and whether to encode the value.
func (e *rowEncoder) column(typ ColType) (int, bool) {
	c := e.col
	e.col++
	if e.err != nil || c >= len(e.t.Schema) {
		return c, false // end reports the arity
	}
	if col := e.t.Schema[c]; col.Type != typ {
		e.fail(fmt.Errorf("rubisdb: column %q wants %s, got %s", col.Name, col.Type.name(), typ.name()))
		return c, false
	}
	return c, true
}

// Int appends an int64 column value.
func (e *rowEncoder) Int(v int64) {
	c, ok := e.column(TInt64)
	if !ok {
		return
	}
	t := e.t
	if c == t.pkCol {
		e.key = v
	}
	for i, sc := range t.secCols {
		if sc == c {
			e.secKeys[i] = v
		}
	}
	t.rowScratch = binary.BigEndian.AppendUint64(t.rowScratch, uint64(v))
}

// Float appends a float64 column value.
func (e *rowEncoder) Float(v float64) {
	if _, ok := e.column(TFloat64); ok {
		e.t.rowScratch = binary.BigEndian.AppendUint64(e.t.rowScratch, math.Float64bits(v))
	}
}

// String appends a string column value; s is copied, so it may alias a
// caller's buffer.
func (e *rowEncoder) String(s string) {
	c, ok := e.column(TString)
	if !ok {
		return
	}
	if len(s) > 0xFFFF {
		e.fail(fmt.Errorf("rubisdb: column %q string too long (%d)", e.t.Schema[c].Name, len(s)))
		return
	}
	t := e.t
	t.rowScratch = binary.BigEndian.AppendUint16(t.rowScratch, uint16(len(s)))
	t.rowScratch = append(t.rowScratch, s...)
}

// end closes the current row and returns its tuple, which aliases the
// table's scratch buffer until the next append; or the first error,
// the arity check included.
func (e *rowEncoder) end() ([]byte, error) {
	if e.err == nil && e.col != len(e.t.Schema) {
		e.fail(fmt.Errorf("rubisdb: row arity %d != schema arity %d", e.col, len(e.t.Schema)))
	}
	if e.err != nil {
		return nil, e.err
	}
	e.col = 0
	tuple := e.t.rowScratch
	e.t.rowScratch = tuple[:0]
	return tuple, nil
}

// fail records err as the first error.
func (e *rowEncoder) fail(err error) {
	if e.err == nil {
		e.err = fmt.Errorf("table %s: %w", e.t.Name, err)
	}
}

// name is the Go type a column of type c holds.
func (c ColType) name() string {
	switch c {
	case TInt64:
		return "int64"
	case TFloat64:
		return "float64"
	case TString:
		return "string"
	}
	return fmt.Sprintf("unknown type %d", int(c))
}

// RowWriter inserts one row at a time: take it with Table.Writer, make
// one typed append (Int, Float or String) per column in schema order,
// then call Insert.
type RowWriter struct {
	rowEncoder
}

// Writer returns the table's row writer, cleared for a new row. The
// writer is reused across rows, so inserting allocates nothing.
func (t *Table) Writer() *RowWriter {
	w := &t.writer
	if w.t == nil {
		w.rowEncoder = t.encoder()
	}
	w.reset()
	return w
}

// Insert stores the row, maintaining all indexes, and returns its RID.
// A type, length or arity error is returned before any page is touched.
func (w *RowWriter) Insert() (RID, error) {
	tuple, err := w.end()
	if err != nil {
		return RID{}, err
	}
	t, key := w.t, w.key
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
	for i, sk := range w.secKeys {
		if err := t.secs[i].Insert(sk, rid.Encode()); err != nil {
			return RID{}, err
		}
	}
	t.engine.meter.RowsWritten++
	t.engine.meter.logRecord(len(tuple))
	return rid, nil
}

// entrySort holds the counting sort's scratch, so one BulkWriter.Close
// reuses it across all of a table's secondary indexes. counts comes
// from countPool and out from entryPool on first use; the caller hands
// both back.
type entrySort struct {
	counts *[]int32
	out    *[]Entry
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
	if s.counts == nil {
		s.counts = getCounts()
	}
	counts := grow((*s.counts)[:0], int(span)+2)
	*s.counts = counts
	for _, e := range entries {
		counts[uint64(e.Key)-uint64(lo)+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	if s.out == nil {
		s.out = getEntries(len(entries))
	}
	out := slices.Grow((*s.out)[:0], len(entries))[:len(entries)]
	*s.out = out
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

// Index is a table's primary-key or secondary index, resolved once by
// Table.Index so that queries skip the column-name lookup.
type Index struct {
	t    *Table
	tree *BTree
}

// Index resolves the index on column, which must be the primary key or
// carry a secondary index.
func (t *Table) Index(column string) (Index, error) {
	ci, err := t.Schema.ColIndex(column)
	if err != nil {
		return Index{}, err
	}
	if ci == t.pkCol {
		return Index{t, t.pk}, nil
	}
	if i := slices.Index(t.secCols, ci); i >= 0 {
		return Index{t, t.secs[i]}, nil
	}
	return Index{}, fmt.Errorf("rubisdb: table %s has no index on %q", t.Name, column)
}

// Read calls fn(i, tuple) for each of up to limit rows (limit <= 0
// means unlimited) whose indexed column equals key, in index order, and
// returns how many rows it visited. The index is scanned into the
// table's reused RID list before any row is fetched, so index and heap
// page touches never interleave. fn may be nil, and obeys ReadByPK's
// rules.
func (ix Index) Read(key int64, limit int, fn func(i int, tu Tuple)) (int, error) {
	t := ix.t
	rids := t.ridScratch[:0]
	err := ix.tree.ScanRange(key, key, func(_ int64, v uint64) bool {
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

// Count counts index entries with lo <= key <= hi without fetching rows
// (an index-only scan).
func (ix Index) Count(lo, hi int64) (int, error) {
	n := 0
	err := ix.tree.ScanRange(lo, hi, func(int64, uint64) bool {
		n++
		return true
	})
	return n, err
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
	t.engine.meter.logRecord(len(tuple))
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
