package rubisdb

import (
	"math/rand"
	"testing"
)

// TestPageDirMatchesMapOracle drives a pageDir and a map through the
// same random set/unset/truncate sequence over sparse file ids (the
// RUBiS layout puts tables filesPerTable apart) and compares every
// lookup, including ids far past the directory, which must read zero.
func TestPageDirMatchesMapOracle(t *testing.T) {
	files := []uint32{0, 1, 16, 17, 18, 130}
	r := rand.New(rand.NewSource(3))
	var d pageDir[int]
	oracle := make(map[PageID]int)
	lengths := make(map[uint32]uint32)
	randID := func() PageID {
		return PageID{File: files[r.Intn(len(files))], PageNo: uint32(r.Intn(40))}
	}
	compare := func(step int) {
		t.Helper()
		for _, f := range append(files, 2, 131, 1<<20) {
			if got, want := d.length(f), lengths[f]; got != want {
				t.Fatalf("step %d: length(%d) = %d, want %d", step, f, got, want)
			}
			for no := uint32(0); no < 45; no++ {
				id := PageID{File: f, PageNo: no}
				if got, want := d.at(id), oracle[id]; got != want {
					t.Fatalf("step %d: at(%v) = %d, want %d", step, id, got, want)
				}
			}
			if got := d.at(PageID{File: f, PageNo: 1 << 30}); got != 0 {
				t.Fatalf("step %d: at past file %d's end = %d, want 0", step, f, got)
			}
		}
	}
	for step := 0; step < 3000; step++ {
		switch op := r.Intn(20); {
		case op == 0:
			d.truncate()
			clear(oracle)
			clear(lengths)
		case op < 6:
			id := randID()
			d.unset(id)
			delete(oracle, id)
		default:
			id := randID()
			v := 1 + r.Intn(1000)
			d.set(id, v)
			oracle[id] = v
			lengths[id.File] = max(lengths[id.File], id.PageNo+1)
		}
		compare(step)
	}
}

// TestPageDirLikeFillsWithoutRegrowing: a directory shaped like a
// golden store's takes every one of its page ids without allocating,
// which keeps view attach allocation-free.
func TestPageDirLikeFillsWithoutRegrowing(t *testing.T) {
	var shape pageDir[Page]
	var ids []PageID
	for _, f := range []uint32{16, 17, 18, 32, 33} {
		for no := uint32(0); no < 25; no++ {
			id := PageID{File: f, PageNo: no}
			shape.set(id, Page{})
			ids = append(ids, id)
		}
	}
	d := pageDirLike[*Frame](&shape)
	fr := &Frame{}
	allocs := testing.AllocsPerRun(10, func() {
		for i := len(ids) - 1; i >= 0; i-- {
			d.set(ids[i], fr)
		}
		d.truncate()
	})
	if allocs != 0 {
		t.Fatalf("filling a shaped directory allocated %.1f times", allocs)
	}
}
