package rubisdb

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// BulkWriter streams rows into an empty table through the sorted
// bulk-load path. A row is written with the same typed column appends
// as a RowWriter's, closed by EndRow, which appends the tuple to the
// heap; Close builds the primary-key and secondary indexes with
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
	rowEncoder
	// lastKey is the previous row's primary key.
	lastKey int64
	rows    int

	// pk and secs (one list per secondary index) collect index entries;
	// they come from entryPool and go back once Close built the trees.
	pk   *[]Entry
	secs []*[]Entry

	// The open WAL batch: rows land on ascending heap pages, so a page
	// switch means the previous batch is complete.
	batchPage             uint32
	batchRows, batchBytes int
}

// BulkWriter returns a writer loading into t, which must be empty.
// rows is a capacity hint for the index entry lists; more rows than the
// hint still load.
func (t *Table) BulkWriter(rows int) *BulkWriter {
	w := &BulkWriter{rowEncoder: t.encoder()}
	if t.heap.Rows != 0 || t.pk.Len() != 0 {
		w.err = fmt.Errorf("table %s: bulk load needs an empty table", t.Name)
		return w
	}
	rows = max(rows, 0)
	w.pk = getEntries(rows)
	w.secs = make([]*[]Entry, len(t.secCols))
	for i := range w.secs {
		w.secs[i] = getEntries(rows)
	}
	w.reset()
	return w
}

// EndRow stores the current row: it checks the arity and key order,
// appends the tuple to the heap and records its index entries.
func (w *BulkWriter) EndRow() {
	tuple, err := w.end()
	if err != nil {
		return
	}
	t := w.t
	if w.rows > 0 && w.key <= w.lastKey {
		w.fail(fmt.Errorf("rubisdb: bulk rows must be sorted by unique primary key (%d after %d)", w.key, w.lastKey))
		return
	}
	rid, err := t.heap.Insert(tuple)
	if err != nil {
		w.fail(err)
		return
	}
	if w.batchRows > 0 && rid.PageNo != w.batchPage {
		t.engine.meter.logBatch(w.batchRows, w.batchBytes)
		w.batchRows, w.batchBytes = 0, 0
	}
	w.batchPage = rid.PageNo
	w.batchRows++
	w.batchBytes += len(tuple)
	enc := rid.Encode()
	*w.pk = append(*w.pk, Entry{Key: w.key, Value: enc})
	for i, sk := range w.secKeys {
		*w.secs[i] = append(*w.secs[i], Entry{Key: sk, Value: enc})
	}
	w.lastKey = w.key
	w.rows++
	t.engine.meter.RowsWritten++
}

// Close logs the last WAL batch and builds the table's indexes. It
// returns the writer's first error instead when there is one, and
// fails on an unfinished row. Call it once, after the last row: it
// hands the writer's entry lists back to entryPool, and a later Close
// returns an error.
func (w *BulkWriter) Close() error {
	var sorter entrySort
	defer func() {
		putEntries(w.pk)
		for _, l := range w.secs {
			putEntries(l)
		}
		putEntries(sorter.out)
		if sorter.counts != nil {
			countPool.Put(sorter.counts)
		}
		w.pk, w.secs = nil, nil
		if w.err == nil {
			w.err = errBulkClosed
		}
	}()
	if w.col != 0 {
		w.fail(fmt.Errorf("rubisdb: Close with an unfinished row (%d columns)", w.col))
	}
	if w.err != nil {
		return w.err
	}
	t := w.t
	if w.batchRows > 0 {
		t.engine.meter.logBatch(w.batchRows, w.batchBytes)
	}
	if err := t.pk.BulkLoad(*w.pk); err != nil {
		return err
	}
	for i, entries := range w.secs {
		sorter.sortEntriesByKey(*entries)
		if err := t.secs[i].BulkLoad(*entries); err != nil {
			return err
		}
	}
	return nil
}

// entryPool recycles bulk-load scratch: a BulkWriter's index entry lists
// and the counting sort's output buffer. Every dataset population loads
// the same tables with the same row counts, so after the first one the
// lists it needs are all in the pool. It holds *[]Entry, so a Put
// boxes nothing.
var entryPool sync.Pool

// getEntries returns an empty entry list with room for at least n
// entries, recycled from entryPool when one is there.
func getEntries(n int) *[]Entry {
	l, ok := entryPool.Get().(*[]Entry)
	if !ok {
		l = new([]Entry)
	}
	*l = slices.Grow((*l)[:0], n)
	return l
}

// putEntries hands l, unless nil, back to entryPool. Nothing may use it
// afterwards.
func putEntries(l *[]Entry) {
	if l != nil {
		entryPool.Put(l)
	}
}

// countPool recycles the counting sort's key counts (entrySort), about
// 144 KB per default population, the way entryPool recycles the entry
// lists. It holds *[]int32, so a Put boxes nothing.
var countPool sync.Pool

// getCounts returns a count list, recycled from countPool when one is
// there. Its contents are stale: the sort clears what it uses.
func getCounts() *[]int32 {
	c, ok := countPool.Get().(*[]int32)
	if !ok {
		c = new([]int32)
	}
	return c
}

// errBulkClosed sticks to a BulkWriter once Close ran.
var errBulkClosed = errors.New("rubisdb: BulkWriter used after Close")
