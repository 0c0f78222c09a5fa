package rubisdb

import (
	"encoding/binary"
	"fmt"
	"math"
)

// BulkWriter streams rows into an empty table through the sorted
// bulk-load path. A row is one typed append per schema column, in
// schema order, closed by EndRow; each value is encoded straight into
// the table's scratch tuple in AppendRow's byte format, so no Row is
// built and no value is boxed. EndRow appends the tuple to the heap;
// Close builds the primary-key and secondary indexes with
// BTree.BulkLoad instead of one root-to-leaf descent per row. Rows must
// arrive in strictly ascending primary-key order (the dataset
// generators emit them that way); secondary entries are sorted at
// Close. WAL traffic is batched: one framed record per heap page of
// rows rather than one per row (the LOAD DATA shape), carrying the same
// row images with far less framing overhead.
//
// The first error (non-empty table, wrong arity, a value of the wrong
// type, a string over 0xFFFF bytes, an out-of-order or duplicate key, a
// tuple over half a page) sticks: later calls do nothing and Close
// returns it. Rows loaded before the error stay in the heap, unindexed.
type BulkWriter struct {
	t   *Table
	err error
	// col counts the current row's appends, including any past the
	// schema's arity (EndRow reports the full count).
	col int
	// key is the current row's primary key; lastKey the previous row's.
	key, lastKey int64
	rows         int

	pk []Entry
	// secs holds one entry list per secondary index. An entry's key is
	// appended with its column's value and its RID filled in by EndRow.
	secs [][]Entry

	// The open WAL batch: rows land on ascending heap pages, so a page
	// switch means the previous batch is complete.
	batchPage             uint32
	batchRows, batchBytes int
}

// BulkWriter returns a writer loading into t, which must be empty.
// rows is a capacity hint for the index entry lists; more rows than the
// hint still load.
func (t *Table) BulkWriter(rows int) *BulkWriter {
	w := &BulkWriter{t: t}
	if t.heap.Rows != 0 || t.pk.Len() != 0 {
		w.err = fmt.Errorf("table %s: bulk load needs an empty table", t.Name)
		return w
	}
	rows = max(rows, 0)
	w.pk = make([]Entry, 0, rows)
	w.secs = make([][]Entry, len(t.secCols))
	for i := range w.secs {
		w.secs[i] = make([]Entry, 0, rows)
	}
	t.rowScratch = t.rowScratch[:0]
	return w
}

// column claims the next column of the current row for a value of type
// typ. It returns the column's index and whether to encode the value.
func (w *BulkWriter) column(typ ColType) (int, bool) {
	c := w.col
	w.col++
	if w.err != nil || c >= len(w.t.Schema) {
		return c, false // EndRow reports the arity
	}
	if col := w.t.Schema[c]; col.Type != typ {
		w.fail(fmt.Errorf("rubisdb: column %q wants %s, got %s", col.Name, col.Type.name(), typ.name()))
		return c, false
	}
	return c, true
}

// Int appends an int64 column value.
func (w *BulkWriter) Int(v int64) {
	c, ok := w.column(TInt64)
	if !ok {
		return
	}
	t := w.t
	if c == t.pkCol {
		w.key = v
	}
	for i, sc := range t.secCols {
		if sc == c {
			w.secs[i] = append(w.secs[i], Entry{Key: v})
		}
	}
	t.rowScratch = binary.BigEndian.AppendUint64(t.rowScratch, uint64(v))
}

// Float appends a float64 column value.
func (w *BulkWriter) Float(v float64) {
	if _, ok := w.column(TFloat64); ok {
		w.t.rowScratch = binary.BigEndian.AppendUint64(w.t.rowScratch, math.Float64bits(v))
	}
}

// String appends a string column value; s is copied, so it may alias a
// caller's buffer.
func (w *BulkWriter) String(s string) {
	c, ok := w.column(TString)
	if !ok {
		return
	}
	if len(s) > 0xFFFF {
		w.fail(fmt.Errorf("rubisdb: column %q string too long (%d)", w.t.Schema[c].Name, len(s)))
		return
	}
	t := w.t
	t.rowScratch = binary.BigEndian.AppendUint16(t.rowScratch, uint16(len(s)))
	t.rowScratch = append(t.rowScratch, s...)
}

// value appends a dynamically typed column value (BulkInsert's Row
// elements).
func (w *BulkWriter) value(v any) {
	switch v := v.(type) {
	case int64:
		w.Int(v)
	case float64:
		w.Float(v)
	case string:
		w.String(v)
	default:
		if w.err == nil && w.col < len(w.t.Schema) {
			col := w.t.Schema[w.col]
			w.fail(fmt.Errorf("rubisdb: column %q wants %s, got %T", col.Name, col.Type.name(), v))
		}
		w.col++
	}
}

// EndRow stores the current row: it checks the arity and key order,
// appends the tuple to the heap and records its index entries.
func (w *BulkWriter) EndRow() {
	if w.err != nil {
		return
	}
	t := w.t
	if w.col != len(t.Schema) {
		w.fail(fmt.Errorf("rubisdb: row arity %d != schema arity %d", w.col, len(t.Schema)))
		return
	}
	w.col = 0
	if w.rows > 0 && w.key <= w.lastKey {
		w.fail(fmt.Errorf("rubisdb: bulk rows must be sorted by unique primary key (%d after %d)", w.key, w.lastKey))
		return
	}
	tuple := t.rowScratch
	t.rowScratch = tuple[:0]
	rid, err := t.heap.Insert(tuple)
	if err != nil {
		w.fail(err)
		return
	}
	if w.batchRows > 0 && rid.PageNo != w.batchPage {
		t.engine.wal.AppendBatchRecord(t.id, walInsert, w.batchRows, w.batchBytes)
		w.batchRows, w.batchBytes = 0, 0
	}
	w.batchPage = rid.PageNo
	w.batchRows++
	w.batchBytes += len(tuple)
	enc := rid.Encode()
	w.pk = append(w.pk, Entry{Key: w.key, Value: enc})
	for i := range w.secs {
		w.secs[i][len(w.secs[i])-1].Value = enc
	}
	w.lastKey = w.key
	w.rows++
	t.engine.meter.RowsWritten++
}

// Close logs the last WAL batch and builds the table's indexes. It
// returns the writer's first error instead when there is one, and
// fails on an unfinished row. Call it once, after the last row.
func (w *BulkWriter) Close() error {
	if w.col != 0 {
		w.fail(fmt.Errorf("rubisdb: Close with an unfinished row (%d columns)", w.col))
	}
	if w.err != nil {
		return w.err
	}
	t := w.t
	if w.batchRows > 0 {
		t.engine.wal.AppendBatchRecord(t.id, walInsert, w.batchRows, w.batchBytes)
	}
	if err := t.pk.BulkLoad(w.pk); err != nil {
		return err
	}
	var sorter entrySort
	for i, entries := range w.secs {
		sorter.sortEntriesByKey(entries)
		if err := t.secs[i].BulkLoad(entries); err != nil {
			return err
		}
	}
	return nil
}

// fail records err as the writer's first error.
func (w *BulkWriter) fail(err error) {
	if w.err == nil {
		w.err = fmt.Errorf("table %s: %w", w.t.Name, err)
	}
}

// BulkInsert loads rows into an empty table through a BulkWriter; see
// BulkWriter for the ordering rules and the errors.
func (t *Table) BulkInsert(rows []Row) error {
	w := t.BulkWriter(len(rows))
	for _, row := range rows {
		for _, v := range row {
			w.value(v)
		}
		w.EndRow()
	}
	return w.Close()
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
