package rubis

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"vwchar/internal/rng"
	"vwchar/internal/rubisdb"
)

// populationGoldenSHA256 pins dataset population at the small test config
// (stream "data" of source 7) and at DefaultDataset() (NewSnapshot's
// stream for seed 1): every table's row count, tuple bytes in storage
// order, index contents, the engine meter and the next-id counters. A
// change to a row's RNG draw order, its encoding, the page layout or the
// metered load work moves it.
var populationGoldenSHA256 = map[string]string{
	"small":   "480349821617337a54c3c807a703d586bf58920ca264b83d88d05dccd5070885",
	"default": "2b145e9894990d4d3c25db61e7c103d282fe81d115101cb64b278d9e7e437ef7",
}

func TestPopulationMatchesGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  DatasetConfig
		r    *rng.Stream
	}{
		{"small", smallDataset(), rng.NewSource(7).Stream("data")},
		{"default", DefaultDataset(), rng.NewStream(1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			app, err := NewApp(c.cfg, c.r)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := populationHash(t, app), populationGoldenSHA256[c.name]; got != want {
				t.Fatalf("population hash = %s, want %s", got, want)
			}
		})
	}
}

// populationHash digests a freshly populated App. Every table's ids are
// dense from 0 and loaded in ascending order, so reading pk 0..Rows()-1
// visits tuples in storage order. The meter is hashed twice: after
// population (the load's own page, row and WAL work), and after the
// read pass, whose buffer hits and misses depend on which page each
// tuple and index entry sits on.
func populationHash(t *testing.T, a *App) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "meter %+v\n", a.Engine.Meter())
	fmt.Fprintf(h, "next %d %d %d %d %d\n",
		a.nextItemID, a.nextBidID, a.nextCommentID, a.nextBuyNowID, a.nextUserID)
	tables := []struct {
		t *rubisdb.Table
		// secs maps each secondary index column to its key domain.
		secs []string
		keys []int64
	}{
		{a.regions, nil, nil},
		{a.categories, nil, nil},
		{a.users, []string{"region"}, []int64{int64(a.Config.Regions)}},
		{a.items, []string{"seller", "category"}, []int64{a.nextUserID, int64(a.Config.Categories)}},
		{a.bids, []string{"user", "item"}, []int64{a.nextUserID, a.nextItemID}},
		{a.comments, []string{"to_user", "item"}, []int64{a.nextUserID, a.nextItemID}},
		{a.buyNow, []string{"buyer", "item"}, []int64{a.nextUserID, a.nextItemID}},
	}
	for _, tb := range tables {
		fmt.Fprintf(h, "table %s rows %d\n", tb.t.Name, tb.t.Rows())
		for id := int64(0); id < int64(tb.t.Rows()); id++ {
			found, err := tb.t.ReadByPK(id, func(tu rubisdb.Tuple) { writeTuple(h, tu) })
			if err != nil || !found {
				t.Fatalf("%s pk %d: found=%v err=%v", tb.t.Name, id, found, err)
			}
		}
		for i, col := range tb.secs {
			for k := int64(0); k < tb.keys[i]; k++ {
				n, err := tb.t.ReadBy(col, k, 0, func(_ int, tu rubisdb.Tuple) { writeTuple(h, tu) })
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

func writeTuple(h hash.Hash, tu rubisdb.Tuple) {
	b := tu.Bytes()
	h.Write([]byte{byte(len(b) >> 8), byte(len(b))})
	h.Write(b)
}
