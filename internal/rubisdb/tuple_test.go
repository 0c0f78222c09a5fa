package rubisdb

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// tableOf returns e's table called name, failing the test when it
// is absent.
func tableOf(t testing.TB, e *Engine, name string) *Table {
	t.Helper()
	tb, err := e.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// readRow decodes the row stored under key, or returns nil when the key
// is absent: the tests' stand-in for a Row-returning lookup.
func readRow(t testing.TB, tb *Table, key int64) Row {
	t.Helper()
	var row Row
	var derr error
	found, err := tb.ReadByPK(key, func(tu Tuple) {
		row, derr = decodeRow(tb.Schema, tu.data)
	})
	if err != nil || derr != nil {
		t.Fatalf("read pk %d: %v / %v", key, err, derr)
	}
	if !found {
		return nil
	}
	return row
}

// columnWriter is the typed column appends RowWriter and BulkWriter
// share.
type columnWriter interface {
	Int(int64)
	Float(float64)
	String(string)
}

// putRow appends row's values to w, one typed append per column; the
// tests' bridge from a Row literal to the writers.
func putRow(w columnWriter, row Row) {
	for _, v := range row {
		switch v := v.(type) {
		case int64:
			w.Int(v)
		case float64:
			w.Float(v)
		case string:
			w.String(v)
		default:
			panic(fmt.Sprintf("putRow: no column type holds %T", v))
		}
	}
}

// insertRow inserts row through tb's row writer.
func insertRow(tb *Table, row Row) (RID, error) {
	w := tb.Writer()
	putRow(w, row)
	return w.Insert()
}

// bulkInsert loads rows into the empty tb through a BulkWriter.
func bulkInsert(tb *Table, rows []Row) error {
	w := tb.BulkWriter(len(rows))
	for _, row := range rows {
		putRow(w, row)
		w.EndRow()
	}
	return w.Close()
}

// encodeRow encodes row with the writers' column encoder, against a
// table that has schema and no storage behind it.
func encodeRow(schema Schema, row Row) ([]byte, error) {
	e := rowEncoder{t: &Table{Name: "codec", Schema: schema}}
	putRow(&e, row)
	return e.end()
}

// mustIndex resolves tb's index on column or fails the test.
func mustIndex(t testing.TB, tb *Table, column string) Index {
	t.Helper()
	ix, err := tb.Index(column)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// FuzzTupleView: for any schema and bytes, the borrowed view accepts
// exactly the tuples decodeRow accepts, with the same error, and Int
// reads the decoded value of every int64 column.
func FuzzTupleView(f *testing.F) {
	schemaOf := func(types ...ColType) []byte {
		out := make([]byte, len(types))
		for i, ct := range types {
			out[i] = byte(ct)
		}
		return out
	}
	users := Schema{{"id", TInt64}, {"nickname", TString}, {"region", TInt64}, {"balance", TFloat64}}
	good, err := encodeRow(users, Row{int64(-7), "nick", int64(1 << 40), 2.5})
	if err != nil {
		f.Fatal(err)
	}
	spec := schemaOf(TInt64, TString, TInt64, TFloat64)
	f.Add(spec, good)
	f.Add(spec, good[:len(good)-1])
	f.Add(spec, append(append([]byte(nil), good...), 0))
	f.Add(spec, good[:9])
	f.Add(schemaOf(TString, TString), []byte{0, 0, 0, 3, 'a', 'b'})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, spec, data []byte) {
		if len(spec) > 16 {
			spec = spec[:16]
		}
		schema := make(Schema, len(spec))
		for i, b := range spec {
			schema[i] = Column{Name: fmt.Sprintf("c%d", i), Type: ColType(b % 3)}
		}
		want, werr := decodeRow(schema, data)
		gerr := validateTuple(schema, data)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("decodeRow err %v, view err %v", werr, gerr)
		}
		if werr != nil {
			return
		}
		tu := Tuple{schema: schema, data: data}
		for col, c := range schema {
			if c.Type != TInt64 {
				continue
			}
			if got := tu.Int(col); got != want[col].(int64) {
				t.Fatalf("Int(%d) = %d, decodeRow = %d", col, got, want[col])
			}
		}
	})
}

func TestTupleIntPanicsOnNonIntColumn(t *testing.T) {
	schema := Schema{{"id", TInt64}, {"name", TString}, {"price", TFloat64}}
	data, err := encodeRow(schema, Row{int64(1), "x", 1.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []int{1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Int(%d) on a %v column did not panic", col, schema[col].Type)
				}
			}()
			Tuple{schema: schema, data: data}.Int(col)
		}()
	}
}

// refReadBy is the read path Index.Read replaced, rebuilt from the
// engine's primitives: scan the index into a RID list, then copy each
// tuple out with Heap.fetch and decode it with decodeRow.
func refReadBy(tb *Table, column string, key int64, limit int) ([]Row, error) {
	ix, err := tb.Index(column)
	if err != nil {
		return nil, err
	}
	var rids []RID
	err = ix.tree.ScanRange(key, key, func(_ int64, v uint64) bool {
		rids = append(rids, DecodeRID(v))
		return limit <= 0 || len(rids) < limit
	})
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, rid := range rids {
		row, err := refFetch(tb, rid)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func refFetch(tb *Table, rid RID) (Row, error) {
	tuple, err := tb.heap.fetch(rid)
	if err != nil {
		return nil, err
	}
	tb.engine.meter.RowsRead++
	tb.engine.meter.BytesOut += float64(len(tuple))
	return decodeRow(tb.Schema, tuple)
}

// refReadByPK is the replaced primary-key lookup: BTree.Search, then the
// first RID's row.
func refReadByPK(tb *Table, key int64) (Row, error) {
	rids, err := tb.pk.search(key)
	if err != nil || len(rids) == 0 {
		return nil, err
	}
	return refFetch(tb, DecodeRID(rids[0]))
}

// refUpdateNumeric is the replaced update: look the row up, decode it,
// patch the Row and re-encode it in place.
func refUpdateNumeric(tb *Table, key int64, set map[int]any) error {
	rids, err := tb.pk.search(key)
	if err != nil || len(rids) == 0 {
		return fmt.Errorf("no row %d: %v", key, err)
	}
	rid := DecodeRID(rids[0])
	row, err := refFetch(tb, rid)
	if err != nil {
		return err
	}
	for col, val := range set {
		row[col] = val
	}
	tuple, err := encodeRow(tb.Schema, row)
	if err != nil {
		return err
	}
	if err := tb.heap.UpdateInPlace(rid, tuple); err != nil {
		return err
	}
	tb.engine.meter.RowsWritten++
	tb.engine.meter.logRecord(len(tuple))
	return nil
}

// TestReadPathMeterParity replays the same reads through the borrowed
// tuple path on one engine and through the reference path on an
// identically built twin. On a pool far smaller than the table every
// page touch shows in the hit/miss split and in later evictions, so
// equal meters after every operation mean an identical buffer-pool Get
// sequence, which is what keeps simulation output unchanged.
func TestReadPathMeterParity(t *testing.T) {
	const n = 3000
	build := func() (*Engine, *Table) {
		e := NewEngine(6, DefaultCostModel())
		tb, err := e.CreateTable("users", Schema{
			{"id", TInt64}, {"nickname", TString}, {"region", TInt64}, {"rating", TInt64}, {"balance", TFloat64},
		}, "id", "region")
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{int64(i), fmt.Sprintf("user%0*d", i%13, i), int64(i % 7), int64(i % 10), float64(i) / 3}
		}
		if err := bulkInsert(tb, rows); err != nil {
			t.Fatal(err)
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return e, tb
	}
	eng, tb := build()
	refEng, refTb := build()
	for _, e := range []*Table{tb, refTb} {
		if h, err := height(e.pk); err != nil || h < 2 {
			t.Fatalf("pk index should span several leaves (height %d, %v)", h, err)
		}
	}
	step := func(what string) {
		t.Helper()
		if eng.Meter() != refEng.Meter() {
			t.Fatalf("%s: meters diverged\nview %+v\nref  %+v", what, eng.Meter(), refEng.Meter())
		}
	}
	viewRow := func(key int64) Row {
		t.Helper()
		row := readRow(t, tb, key)
		want, err := refReadByPK(refTb, key)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(row, want) {
			t.Fatalf("pk %d: view %v, reference %v", key, row, want)
		}
		step(fmt.Sprintf("pk %d", key))
		return row
	}

	// A primary key that ends its leaf: the run's end shows only on the
	// next leaf, so its lookup touches one page more than its neighbour's
	// in mid-leaf. A lookup that stopped at the first match would skip it.
	var lastKey int64
	for _, e := range []*Table{tb, refTb} {
		f, err := e.pk.findLeaf(encodeKey(0), 0)
		if err != nil {
			t.Fatal(err)
		}
		if leafNext(f.Page) == noNext {
			t.Fatal("first pk leaf has no successor")
		}
		lastKey = decodeKey(leafRawKey(f.Page, nodeCount(f.Page)-1))
		f.Unpin(false)
	}
	touches := func(key int64) uint64 {
		before := eng.Meter()
		viewRow(key)
		d := eng.Meter().Sub(before)
		return d.PageHits + d.PageMisses
	}
	if mid, last := touches(lastKey-1), touches(lastKey); last != mid+1 {
		t.Fatalf("pk %d ends its leaf: %d page touches, want %d (one more than mid-leaf pk %d)", lastKey, last, mid+1, lastKey-1)
	}

	for key := int64(-2); key < n+2; key++ {
		viewRow(key)
	}
	for _, limit := range []int{0, 1, 8, 500} {
		for key := int64(-1); key <= 7; key++ {
			var got []Row
			cnt, err := mustIndex(t, tb, "region").Read(key, limit, func(i int, tu Tuple) {
				row, err := decodeRow(tb.Schema, tu.data)
				if err != nil || i != len(got) {
					t.Fatalf("region %d row %d: %v", key, i, err)
				}
				got = append(got, row)
			})
			if err != nil {
				t.Fatal(err)
			}
			want, err := refReadBy(refTb, "region", key, limit)
			if err != nil {
				t.Fatal(err)
			}
			if cnt != len(want) || !reflect.DeepEqual(got, want) {
				t.Fatalf("region %d limit %d: view %d rows, reference %d", key, limit, cnt, len(want))
			}
			step(fmt.Sprintf("region %d limit %d", key, limit))
		}
	}
	for key := int64(0); key < n; key += 97 {
		if _, err := mustIndex(t, tb, "id").Read(key, 0, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := refReadBy(refTb, "id", key, 0); err != nil {
			t.Fatal(err)
		}
		step(fmt.Sprintf("Read id %d", key))
	}

	// The read-modify-write of UpdateNumeric against the decode/re-encode
	// it replaced: same page touches, rows, bytes, WAL traffic and result.
	for key := int64(5); key < n; key += 211 {
		walBefore := eng.Meter().WALBytes
		if err := tb.UpdateNumeric(key, NumericUpdate{Col: 4, Float: math.Pi * float64(key)}, NumericUpdate{Col: 3, Int: -key}); err != nil {
			t.Fatal(err)
		}
		if err := refUpdateNumeric(refTb, key, map[int]any{4: math.Pi * float64(key), 3: -key}); err != nil {
			t.Fatal(err)
		}
		step(fmt.Sprintf("update pk %d", key))
		if v, r := eng.Meter().WALBytes, refEng.Meter().WALBytes; v != r || v == walBefore {
			t.Fatalf("update pk %d: WAL bytes view %v ref %v, before %v", key, v, r, walBefore)
		}
		if got, want := viewRow(key), (Row{key, fmt.Sprintf("user%0*d", key%13, key), key % 7, -key, math.Pi * float64(key)}); !reflect.DeepEqual(got, want) {
			t.Fatalf("updated row %v, want %v", got, want)
		}
	}
}
