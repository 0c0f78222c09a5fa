package rubisdb

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// height reports the tree's depth (1 for a lone leaf) by walking its
// leftmost spine.
func height(t *BTree) (int, error) {
	h := 1
	id := t.root
	for {
		f, err := t.pool.Get(id)
		if err != nil {
			return 0, err
		}
		if f.Page[0] == nodeLeaf {
			f.Unpin(false)
			return h, nil
		}
		id = PageID{File: t.file, PageNo: innerChild(f.Page, 0)}
		f.Unpin(false)
		h++
	}
}

func newTestTree(t *testing.T, pages int) *BTree {
	t.Helper()
	meter := &Meter{}
	pool := NewBufferPool(NewMemStore(), pages, meter)
	tree, err := newBTree(pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestBTreeInsertAndSearch(t *testing.T) {
	tree := newTestTree(t, 64)
	for i := int64(0); i < 100; i++ {
		if err := tree.Insert(i, uint64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Len() != 100 {
		t.Fatalf("Len = %d", tree.Len())
	}
	for i := int64(0); i < 100; i++ {
		vals, err := tree.search(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 1 || vals[0] != uint64(i*10) {
			t.Fatalf("Search(%d) = %v", i, vals)
		}
	}
	if vals, _ := tree.search(1000); len(vals) != 0 {
		t.Fatalf("Search(absent) = %v", vals)
	}
}

func TestBTreeDuplicateKeysDistinctValues(t *testing.T) {
	tree := newTestTree(t, 64)
	for v := uint64(0); v < 50; v++ {
		if err := tree.Insert(7, v); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := tree.search(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 50 {
		t.Fatalf("Search(7) returned %d values", len(vals))
	}
	for i, v := range vals {
		if v != uint64(i) {
			t.Fatalf("values not in order: %v", vals)
		}
	}
}

func TestBTreeExactDuplicateRejected(t *testing.T) {
	tree := newTestTree(t, 64)
	if err := tree.Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(1, 2); err == nil {
		t.Fatal("exact duplicate insert should fail")
	}
}

func TestBTreeSplitsManyKeys(t *testing.T) {
	tree := newTestTree(t, 256)
	const n = 20000 // forces multiple levels (leafMax=511)
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for _, i := range perm {
		if err := tree.Insert(int64(i), uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	h, err := height(tree)
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Fatalf("height = %d, expected splits", h)
	}
	// Every key findable.
	for i := 0; i < n; i += 97 {
		vals, err := tree.search(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 1 || vals[0] != uint64(i) {
			t.Fatalf("Search(%d) = %v after splits", i, vals)
		}
	}
}

func TestBTreeScanRangeOrderedAndBounded(t *testing.T) {
	tree := newTestTree(t, 256)
	for i := int64(0); i < 5000; i += 2 { // even keys only
		if err := tree.Insert(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	err := tree.ScanRange(100, 200, func(k int64, v uint64) bool {
		got = append(got, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 51 {
		t.Fatalf("range [100,200] returned %d keys", len(got))
	}
	for i, k := range got {
		if k != int64(100+2*i) {
			t.Fatalf("scan out of order at %d: %v", i, got[:i+1])
		}
	}
}

func TestBTreeScanRangeEarlyStop(t *testing.T) {
	tree := newTestTree(t, 64)
	for i := int64(0); i < 100; i++ {
		if err := tree.Insert(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	err := tree.ScanRange(0, 99, func(k int64, v uint64) bool {
		count++
		return count < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("early stop visited %d", count)
	}
	// Inverted range is a no-op.
	if err := tree.ScanRange(10, 5, func(int64, uint64) bool {
		t.Fatal("inverted range visited an entry")
		return false
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeNegativeKeys(t *testing.T) {
	tree := newTestTree(t, 64)
	keys := []int64{-100, -1, 0, 1, 100}
	for _, k := range keys {
		if err := tree.Insert(k, uint64(k+200)); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	if err := tree.ScanRange(-200, 200, func(k int64, _ uint64) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("negative keys out of order: %v", got)
	}
	if len(got) != len(keys) {
		t.Fatalf("got %d keys, want %d", len(got), len(keys))
	}
}

func TestBTreeSurvivesTinyBufferPool(t *testing.T) {
	// A 8-page pool forces constant eviction during splits; correctness
	// must not depend on residency.
	tree := newTestTree(t, 8)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tree.Insert(int64(i), uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < n; i += 53 {
		vals, err := tree.search(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 1 {
			t.Fatalf("Search(%d) under eviction = %v", i, vals)
		}
	}
}

// Property: a B+tree behaves exactly like a sorted multimap for any
// insertion sequence.
func TestPropertyBTreeMatchesReferenceModel(t *testing.T) {
	f := func(rawKeys []int16, rawVals []uint16) bool {
		tree := newTestTree(&testing.T{}, 128)
		type pair struct {
			k int64
			v uint64
		}
		seen := map[pair]bool{}
		var ref []pair
		for i, rk := range rawKeys {
			v := uint64(i)
			if i < len(rawVals) {
				v = uint64(rawVals[i])
			}
			p := pair{int64(rk), v}
			if seen[p] {
				continue
			}
			seen[p] = true
			if err := tree.Insert(p.k, p.v); err != nil {
				return false
			}
			ref = append(ref, p)
		}
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].k != ref[j].k {
				return ref[i].k < ref[j].k
			}
			return ref[i].v < ref[j].v
		})
		var got []pair
		if err := tree.ScanRange(-40000, 40000, func(k int64, v uint64) bool {
			got = append(got, pair{k, v})
			return true
		}); err != nil {
			return false
		}
		if len(got) != len(ref) {
			return false
		}
		for i := range ref {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
