package rubisdb

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// newBulkTable returns an empty users table (usersSchema, secondary index
// on region) in a fresh engine.
func newBulkTable(t *testing.T) *Table {
	t.Helper()
	e := NewEngine(256, DefaultCostModel())
	tb, err := e.CreateTable("users", usersSchema(), "id", "region")
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// writeUser writes one well-formed usersSchema row.
func writeUser(w *BulkWriter, id int64, nick string, region int64) {
	w.Int(id)
	w.String(nick)
	w.Int(region)
	w.Int(0)
	w.EndRow()
}

func TestBulkWriterRejects(t *testing.T) {
	cases := []struct {
		name  string
		setup func(*Table) // runs before the writer is taken
		write func(*BulkWriter)
		want  string
	}{
		{
			name: "non-empty table",
			setup: func(tb *Table) {
				if _, err := insertRow(tb, Row{int64(1), "a", int64(0), int64(0)}); err != nil {
					panic(err)
				}
			},
			write: func(w *BulkWriter) { writeUser(w, 2, "b", 0) },
			want:  "needs an empty table",
		},
		{
			name: "short row",
			write: func(w *BulkWriter) {
				w.Int(1)
				w.String("a")
				w.Int(0)
				w.EndRow()
			},
			want: "row arity 3 != schema arity 4",
		},
		{
			name: "long row",
			write: func(w *BulkWriter) {
				w.Int(1)
				w.String("a")
				w.Int(0)
				w.Int(0)
				w.Float(1)
				w.EndRow()
			},
			want: "row arity 5 != schema arity 4",
		},
		{
			name: "type mismatch",
			write: func(w *BulkWriter) {
				w.Int(1)
				w.String("a")
				w.Float(0)
				w.Int(0)
				w.EndRow()
			},
			want: `column "region" wants int64, got float64`,
		},
		{
			name: "duplicate pk",
			write: func(w *BulkWriter) {
				writeUser(w, 1, "a", 0)
				writeUser(w, 1, "b", 0)
			},
			want: "sorted by unique primary key (1 after 1)",
		},
		{
			name: "decreasing pk",
			write: func(w *BulkWriter) {
				writeUser(w, 5, "a", 0)
				writeUser(w, 4, "b", 0)
			},
			want: "sorted by unique primary key (4 after 5)",
		},
		{
			name:  "string over 0xFFFF",
			write: func(w *BulkWriter) { writeUser(w, 1, strings.Repeat("x", 0x10000), 0) },
			want:  `column "nickname" string too long (65536)`,
		},
		{
			name:  "tuple over half a page",
			write: func(w *BulkWriter) { writeUser(w, 1, strings.Repeat("x", PageSize/2), 0) },
			want:  "exceeds half page",
		},
		{
			name: "unfinished row",
			write: func(w *BulkWriter) {
				writeUser(w, 1, "a", 0)
				w.Int(2)
			},
			want: "unfinished row",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := newBulkTable(t)
			if c.setup != nil {
				c.setup(tb)
			}
			w := tb.BulkWriter(4)
			c.write(w)
			err := w.Close()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Close() = %v, want an error containing %q", err, c.want)
			}
			if !strings.HasPrefix(err.Error(), "table users: ") {
				t.Fatalf("error %q does not name its table", err)
			}
			// Nothing reaches the indexes of a failed load.
			if n, err := mustIndex(t, tb, "id").Count(-1<<62, 1<<62); err != nil || n > 1 {
				t.Fatalf("pk index holds %d entries after a failed load (%v)", n, err)
			}
		})
	}
}

func TestBulkWriterFirstErrorSticks(t *testing.T) {
	tb := newBulkTable(t)
	w := tb.BulkWriter(8)
	writeUser(w, 1, "a", 0)
	// First error: a string where the region id goes.
	w.Int(2)
	w.String("b")
	w.String("region")
	w.Int(0)
	w.EndRow()
	// Later faults (arity, key order, oversize) must not replace it.
	w.Int(0)
	w.EndRow()
	writeUser(w, 0, strings.Repeat("x", PageSize), 0)
	want := `table users: rubisdb: column "region" wants int64, got string`
	for i := 0; i < 2; i++ {
		if err := w.Close(); err == nil || err.Error() != want {
			t.Fatalf("Close #%d = %v, want %q", i+1, err, want)
		}
	}
	if tb.heap.Rows != 1 {
		t.Fatalf("heap holds %d rows, want the 1 written before the error", tb.heap.Rows)
	}
}

// TestBulkWriterMatchesInsert loads the same rows through the writer
// (with a hint far below the row count, so the entry lists regrow) and
// through Insert, then compares every point and secondary read byte for
// byte.
func TestBulkWriterMatchesInsert(t *testing.T) {
	const n, regions = 3000, 9
	r := rand.New(rand.NewSource(17))
	nicks := make([]string, n)
	regs := make([]int64, n)
	for i := range nicks {
		nicks[i] = strings.Repeat("n", r.Intn(40))
		regs[i] = int64(r.Intn(regions))
	}

	bulk := newBulkTable(t)
	w := bulk.BulkWriter(10)
	for i := range nicks {
		writeUser(w, int64(i)*3, nicks[i], regs[i])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	incr := newBulkTable(t)
	for i := range nicks {
		if _, err := insertRow(incr, Row{int64(i) * 3, nicks[i], regs[i], int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if bulk.heap.Rows != n || incr.heap.Rows != n {
		t.Fatalf("rows: bulk=%d incr=%d", bulk.heap.Rows, incr.heap.Rows)
	}
	if b, i := bulk.engine.Meter().RowsWritten, incr.engine.Meter().RowsWritten; b != i {
		t.Fatalf("RowsWritten: bulk=%d incr=%d", b, i)
	}
	read := func(tb *Table, key int64) []byte {
		var out []byte
		if _, err := tb.ReadByPK(key, func(tu Tuple) { out = append(out, tu.data...) }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for key := int64(-1); key <= 3*n; key++ {
		if a, b := read(bulk, key), read(incr, key); !bytes.Equal(a, b) {
			t.Fatalf("ReadByPK(%d): bulk=%x incr=%x", key, a, b)
		}
	}
	readBy := func(tb *Table, reg int64) []byte {
		var out []byte
		if _, err := mustIndex(t, tb, "region").Read(reg, 0, func(_ int, tu Tuple) { out = append(out, tu.data...) }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for reg := int64(-1); reg <= regions; reg++ {
		if a, b := readBy(bulk, reg), readBy(incr, reg); !bytes.Equal(a, b) {
			t.Fatalf("Read(region=%d) differs: bulk %d bytes, incr %d bytes", reg, len(a), len(b))
		}
	}
}

// TestBulkWriterRowAllocs: a hinted writer stores rows without
// allocating (the heap's pages come from slabs; a page fill is a
// sentinel error).
func TestBulkWriterRowAllocs(t *testing.T) {
	tb := newBulkTable(t)
	const runs = 2000
	w := tb.BulkWriter(runs + 1)
	id := int64(0)
	allocs := testing.AllocsPerRun(runs, func() {
		writeUser(w, id, "nickname", id%7)
		id++
	})
	if allocs != 0 {
		t.Fatalf("BulkWriter row allocated %.2f times", allocs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
