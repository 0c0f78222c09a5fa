package rubis

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"testing"

	"vwchar/internal/rng"
	"vwchar/internal/rubisdb"
)

// populationGoldenSHA256 pins dataset population at the small test config
// (stream "data" of source 7) and at DefaultDataset() (NewSnapshot's
// stream for seed 1): every table's row count, tuple bytes in storage
// order, index contents, the engine meter and the next-id counters. A
// change to a row's RNG draw order, its encoding, the page layout or the
// metered load work moves it. The "runtime" case pins the interactions'
// writes the same way: a small-dataset snapshot view after a fixed
// bidding-mix walk that reaches all five write kinds.
var populationGoldenSHA256 = map[string]string{
	"small":   "480349821617337a54c3c807a703d586bf58920ca264b83d88d05dccd5070885",
	"default": "2b145e9894990d4d3c25db61e7c103d282fe81d115101cb64b278d9e7e437ef7",
	"runtime": "263028b6d05549a98d87df1752be4c791c841bf1da2b7f045bcab8294e4f0129",
}

func TestPopulationMatchesGolden(t *testing.T) {
	populated := func(cfg DatasetConfig, r *rng.Stream) func(*testing.T) *App {
		return func(t *testing.T) *App {
			app, err := NewApp(cfg, r)
			if err != nil {
				t.Fatal(err)
			}
			return app
		}
	}
	cases := []struct {
		name string
		app  func(*testing.T) *App
	}{
		{"small", populated(smallDataset(), rng.NewSource(7).Stream("data"))},
		{"default", populated(DefaultDataset(), rng.NewStream(1))},
		{"runtime", runtimeWrites},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			app := c.app(t)
			if got, want := populationHash(t, app), populationGoldenSHA256[c.name]; got != want {
				t.Fatalf("population hash = %s, want %s", got, want)
			}
		})
	}
}

// runtimeWrites attaches a small-dataset snapshot view and walks 2,000
// fixed-seed bidding-mix steps on it, failing unless every write kind
// ran at least once.
func runtimeWrites(t *testing.T) *App {
	snap, err := NewSnapshot(smallDataset(), 7)
	if err != nil {
		t.Fatal(err)
	}
	app := snap.Attach()
	mix := BiddingMix()
	params := DefaultCostParams()
	r := rng.NewSource(38).Stream("runtime")
	sess := Session{UserID: 5, ItemID: 10, CategoryID: 2, RegionID: 3, ToUserID: 7}
	var res Result
	writes := map[Interaction]int{}
	cur := mix.StartState()
	for i := 0; i < 2000; i++ {
		cur = mix.NextInteraction(cur, r)
		if err := app.ExecuteInto(&res, cur, &sess, r, params); err != nil {
			t.Fatalf("step %d (%s): %v", i, cur, err)
		}
		if res.IsWrite {
			writes[cur]++
		}
	}
	for _, kind := range []Interaction{RegisterUser, RegisterItem, StoreBid, StoreBuyNow, StoreComment} {
		if writes[kind] == 0 {
			t.Fatalf("the walk never ran %s (writes: %v)", kind, writes)
		}
	}
	return app
}

// populationHash digests a freshly populated App. Every table's ids are
// dense from 0 and loaded in ascending order, so its row count is its
// next id and reading pk 0..rows-1 visits tuples in storage order. The
// meter is hashed twice: after population (the load's own page, row and
// WAL work), and after the read pass, whose buffer hits and misses
// depend on which page each tuple and index entry sits on.
func populationHash(t *testing.T, a *App) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "meter %+v\n", a.Engine.Meter())
	fmt.Fprintf(h, "next %d %d %d %d %d\n",
		a.next.item, a.next.bid, a.next.comment, a.next.buyNow, a.next.user)
	tables := []struct {
		t    *rubisdb.Table
		rows int64
		// secs maps each secondary index column to its key domain.
		secs []string
		keys []int64
	}{
		{a.regions, int64(a.Config.Regions), nil, nil},
		{a.categories, int64(a.Config.Categories), nil, nil},
		{a.users, a.next.user, []string{"region"}, []int64{int64(a.Config.Regions)}},
		{a.items, a.next.item, []string{"seller", "category"}, []int64{a.next.user, int64(a.Config.Categories)}},
		{a.bids, a.next.bid, []string{"user", "item"}, []int64{a.next.user, a.next.item}},
		{a.comments, a.next.comment, []string{"to_user", "item"}, []int64{a.next.user, a.next.item}},
		{a.buyNow, a.next.buyNow, []string{"buyer", "item"}, []int64{a.next.user, a.next.item}},
	}
	for _, tb := range tables {
		fmt.Fprintf(h, "table %s rows %d\n", tb.t.Name, tb.rows)
		for id := int64(0); id < tb.rows; id++ {
			found, err := tb.t.ReadByPK(id, func(tu rubisdb.Tuple) { writeTuple(h, tu) })
			if err != nil || !found {
				t.Fatalf("%s pk %d: found=%v err=%v", tb.t.Name, id, found, err)
			}
		}
		for i, col := range tb.secs {
			ix, err := tb.t.Index(col)
			if err != nil {
				t.Fatal(err)
			}
			for k := int64(0); k < tb.keys[i]; k++ {
				n, err := ix.Read(k, 0, func(_ int, tu rubisdb.Tuple) { writeTuple(h, tu) })
				if err != nil {
					t.Fatalf("%s.%s = %d: %v", tb.t.Name, col, k, err)
				}
				fmt.Fprintf(h, "%s.%s=%d:%d\n", tb.t.Name, col, k, n)
			}
		}
	}
	fmt.Fprintf(h, "meter %+v\n", a.Engine.Meter())
	return hex.EncodeToString(h.Sum(nil))
}

// writeTuple digests a tuple's encoded bytes behind a length prefix.
// rubisdb.Tuple exposes columns, not bytes, so it reads the unexported
// data field through reflection, which allows reads.
func writeTuple(h hash.Hash, tu rubisdb.Tuple) {
	b := reflect.ValueOf(tu).FieldByName("data").Bytes()
	h.Write([]byte{byte(len(b) >> 8), byte(len(b))})
	h.Write(b)
}
