package rubis

import (
	"fmt"
	"runtime"
	"testing"

	"vwchar/internal/rng"
	"vwchar/internal/rubisdb"
)

// smallDataset keeps test setup fast.
func smallDataset() DatasetConfig {
	return DatasetConfig{
		Regions:         10,
		Categories:      8,
		Users:           400,
		ActiveItems:     150,
		OldItems:        250,
		BidsPerItem:     3,
		CommentsPerUser: 1,
		BufferPages:     256,
	}
}

func newTestApp(t *testing.T) *App {
	t.Helper()
	app, err := NewApp(smallDataset(), rng.NewSource(7).Stream("data"))
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// tableOf returns app's table called name, failing the test when it
// is absent.
func tableOf(t *testing.T, app *App, name string) *rubisdb.Table {
	t.Helper()
	tb, err := app.Engine.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestDatasetPopulation(t *testing.T) {
	app := newTestApp(t)
	if app.TotalUsers() != 400 {
		t.Fatalf("users = %d", app.TotalUsers())
	}
	if app.TotalItems() != 400 {
		t.Fatalf("items = %d", app.TotalItems())
	}
	// Spot-check the data is queryable.
	users, err := app.Engine.Table("users")
	if err != nil {
		t.Fatal(err)
	}
	found, err := users.ReadByPK(200, nil)
	if err != nil || !found {
		t.Fatalf("user 200 missing: %v", err)
	}
	bids, _ := app.Engine.Table("bids")
	if found, err := bids.ReadByPK(0, nil); err != nil || !found {
		t.Fatalf("no bids populated: %v", err)
	}
}

func TestAllInteractionsExecute(t *testing.T) {
	app := newTestApp(t)
	r := rng.NewSource(9).Stream("exec")
	params := DefaultCostParams()
	sess := &Session{UserID: 5, ItemID: 10, CategoryID: 2, RegionID: 3, ToUserID: 7}
	for _, kind := range AllInteractions() {
		res, err := app.Execute(kind, sess, r, params)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Interaction != kind {
			t.Fatalf("%s: wrong interaction in result", kind)
		}
		if res.WebCycles <= 0 {
			t.Fatalf("%s: no web cycles", kind)
		}
		if res.ResponseBytes <= 0 || res.RequestBytes <= 0 {
			t.Fatalf("%s: missing transfer sizes", kind)
		}
		if n, c := len(res.Queries), cap(res.Queries); n > MaxQueries || c != MaxQueries {
			t.Fatalf("%s: %d queries in a buffer of %d, want at most MaxQueries=%d in one of MaxQueries", kind, n, c, MaxQueries)
		}
		for qi, q := range res.Queries {
			if q.Receipt.CPUCycles <= 0 {
				t.Fatalf("%s query %d: no DB cycles", kind, qi)
			}
			if q.RequestBytes <= 0 {
				t.Fatalf("%s query %d: no request bytes", kind, qi)
			}
		}
	}
	if _, err := app.Execute(NumInteractions, sess, r, params); err == nil {
		t.Fatal("out-of-range interaction should error")
	}
}

func TestInteractionString(t *testing.T) {
	want := map[Interaction]string{
		Home: "Home", Register: "Register", RegisterUser: "RegisterUser",
		Browse: "Browse", BrowseCategories: "BrowseCategories",
		SearchItemsInCategory:    "SearchItemsInCategory",
		BrowseRegions:            "BrowseRegions",
		BrowseCategoriesInRegion: "BrowseCategoriesInRegion",
		SearchItemsInRegion:      "SearchItemsInRegion",
		ViewItem:                 "ViewItem", ViewUserInfo: "ViewUserInfo",
		ViewBidHistory: "ViewBidHistory", BuyNowAuth: "BuyNowAuth",
		BuyNow: "BuyNow", StoreBuyNow: "StoreBuyNow", PutBidAuth: "PutBidAuth",
		PutBid: "PutBid", StoreBid: "StoreBid", PutCommentAuth: "PutCommentAuth",
		PutComment: "PutComment", StoreComment: "StoreComment", Sell: "Sell",
		SelectCategoryToSellItem: "SelectCategoryToSellItem",
		SellItemForm:             "SellItemForm", RegisterItem: "RegisterItem",
		AboutMe: "AboutMe",
	}
	all := AllInteractions()
	if len(want) != NumInteractions || len(all) != NumInteractions {
		t.Fatalf("%d names, %d kinds, want %d", len(want), len(all), NumInteractions)
	}
	for i, kind := range all {
		if int(kind) != i {
			t.Fatalf("AllInteractions()[%d] = %d", i, kind)
		}
		if got := kind.String(); got != want[kind] {
			t.Errorf("Interaction(%d).String() = %q, want %q", i, got, want[kind])
		}
	}
	if got := Interaction(NumInteractions).String(); got != "Interaction(26)" {
		t.Errorf("out-of-range kind renders as %q", got)
	}
	if got := fmt.Sprintf("%s %q", ViewItem, StoreBid); got != `ViewItem "StoreBid"` {
		t.Errorf("formatted kinds = %s", got)
	}
}

func TestWriteInteractionsPersist(t *testing.T) {
	app := newTestApp(t)
	r := rng.NewSource(9).Stream("w")
	params := DefaultCostParams()
	sess := &Session{UserID: 5, ItemID: 10, CategoryID: 2, ToUserID: 7}

	bidID := app.next.bid
	res, err := app.Execute(StoreBid, sess, r, params)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsWrite {
		t.Fatal("StoreBid should be a write")
	}
	if found, err := tableOf(t, app, "bids").ReadByPK(bidID, nil); err != nil || !found {
		t.Fatalf("StoreBid did not insert bid %d: %v", bidID, err)
	}
	// The bid also bumps the item's counters.
	var nbBids int64
	if _, err := tableOf(t, app, "items").ReadByPK(10, func(t rubisdb.Tuple) { nbBids = t.Int(colItemNbBids) }); err != nil {
		t.Fatal(err)
	}
	if nbBids != 1 {
		t.Fatalf("nb_bids = %v after StoreBid", nbBids)
	}

	usersBefore := app.TotalUsers()
	if _, err := app.Execute(RegisterUser, sess, r, params); err != nil {
		t.Fatal(err)
	}
	if app.TotalUsers() != usersBefore+1 {
		t.Fatal("RegisterUser did not create a user")
	}

	itemsBefore := app.TotalItems()
	if _, err := app.Execute(RegisterItem, sess, r, params); err != nil {
		t.Fatal(err)
	}
	if app.TotalItems() != itemsBefore+1 {
		t.Fatal("RegisterItem did not create an item")
	}

	if _, err := app.Execute(StoreComment, sess, r, params); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Execute(StoreBuyNow, sess, r, params); err != nil {
		t.Fatal(err)
	}
}

// TestInteractionsDoNotAllocate guards the borrowed-tuple read path and
// the typed row writers: once a caller-owned Result has grown, every
// interaction served from an attached snapshot view runs without a heap
// allocation per call. testing.AllocsPerRun truncates its per-call
// quotient, so for the read-only kinds, which grow nothing, the gate is
// the exact malloc total over many calls. Writes grow the heap, index
// and copy-on-write pages now and then; they keep the per-call gate and
// log their exact totals.
func TestInteractionsDoNotAllocate(t *testing.T) {
	const calls = 1000
	snap, err := NewSnapshot(smallDataset(), 7)
	if err != nil {
		t.Fatal(err)
	}
	app := snap.Attach()
	defer app.Release()
	r := rng.NewSource(9).Stream("allocs")
	params := DefaultCostParams()
	var res Result
	writes := 0
	for _, kind := range AllInteractions() {
		run := func() {
			sess := Session{UserID: 5, ItemID: 10, CategoryID: 2, RegionID: 3, ToUserID: 7}
			if err := app.ExecuteInto(&res, kind, &sess, r, params); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
		}
		run() // grows res.Queries, the tables' RID lists and row buffers
		if !res.IsWrite {
			if n := mallocs(calls, run); n != 0 {
				t.Errorf("%s allocates %d times in %d calls", kind, n, calls)
			}
			continue
		}
		writes++
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("%s allocates %v times per call", kind, n)
		}
		t.Logf("%s: %d mallocs in %d calls", kind, mallocs(calls, run), calls)
	}
	if writes != 5 {
		t.Fatalf("checked %d write interactions, want 5", writes)
	}
}

// mallocs reports the exact number of heap allocations n calls of f
// make, counted on one P so no other goroutine's allocations land in
// the window.
func mallocs(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

func TestReadsAreNotWrites(t *testing.T) {
	app := newTestApp(t)
	r := rng.NewSource(9).Stream("ro")
	sess := &Session{UserID: 5, ItemID: 10, CategoryID: 2, ToUserID: 7}
	for _, kind := range []Interaction{Home, SearchItemsInCategory, ViewItem, ViewUserInfo, ViewBidHistory, AboutMe} {
		res, err := app.Execute(kind, sess, r, DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		if res.IsWrite {
			t.Fatalf("%s should not be a write", kind)
		}
	}
}

func TestDBTransferAccounting(t *testing.T) {
	app := newTestApp(t)
	r := rng.NewSource(9).Stream("xfer")
	sess := &Session{UserID: 5, ItemID: 10, CategoryID: 2, ToUserID: 7}
	res, err := app.Execute(ViewItem, sess, r, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	toDB, fromDB := res.DBTransferBytes()
	if toDB <= 0 || fromDB <= 0 {
		t.Fatalf("ViewItem transfers: to=%v from=%v", toDB, fromDB)
	}
	if res.TotalDBCycles() <= 0 {
		t.Fatal("ViewItem should consume DB cycles")
	}
	// Menu pages are served from the app-tier cache: no DB calls.
	res, err = app.Execute(BrowseCategories, sess, r, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 0 {
		t.Fatal("BrowseCategories should not hit the DB (cached menu)")
	}
}

func TestMixValidation(t *testing.T) {
	for _, m := range []*Mix{BrowsingMix(), BiddingMix()} {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
	}
}

func TestBrowsingMixIsReadOnly(t *testing.T) {
	m := BrowsingMix()
	writes := map[Interaction]bool{
		RegisterUser: true, RegisterItem: true, StoreBid: true,
		StoreBuyNow: true, StoreComment: true,
	}
	for from, row := range m.table {
		if len(row.to) > 0 && writes[Interaction(from)] {
			t.Fatalf("browsing mix contains write state %s", Interaction(from))
		}
	}
}

func TestBiddingMixReachesWrites(t *testing.T) {
	m := BiddingMix()
	r := rng.NewSource(3).Stream("walk")
	seen := map[Interaction]bool{}
	cur := m.Start
	for i := 0; i < 20000; i++ {
		cur = m.NextInteraction(cur, r)
		seen[cur] = true
	}
	for _, want := range []Interaction{StoreBid, StoreBuyNow, StoreComment, RegisterItem, RegisterUser} {
		if !seen[want] {
			t.Fatalf("bidding mix never reached %s in 20k steps", want)
		}
	}
}

func TestMixThinkTimes(t *testing.T) {
	browse, bid := BrowsingMix(), BiddingMix()
	if browse.ThinkMeanSeconds != 7.0 {
		t.Fatalf("browse think = %v, paper sets 7 s", browse.ThinkMeanSeconds)
	}
	if bid.ThinkMeanSeconds <= browse.ThinkMeanSeconds {
		t.Fatal("bidding think time should be longer (paper §4.1)")
	}
	r := rng.NewSource(3).Stream("think")
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += browse.ThinkSeconds(r)
	}
	if mean := sum / n; mean < 6.8 || mean > 7.2 {
		t.Fatalf("think sample mean = %v", mean)
	}
}

func TestMixUnknownStateRestarts(t *testing.T) {
	m := BrowsingMix()
	r := rng.NewSource(3).Stream("x")
	if next := m.NextInteraction(StoreBid, r); next != m.Start {
		t.Fatalf("unknown state should restart at %s, got %s", m.Start, next)
	}
}

func TestCompositeMix(t *testing.T) {
	c := NewCompositeMix(0.7)
	if c.MixName() != "70%browse-30%bid" {
		t.Fatalf("name = %q", c.MixName())
	}
	r := rng.NewSource(3).Stream("comp")
	seen := map[Interaction]bool{}
	cur := c.StartState()
	for i := 0; i < 50000; i++ {
		cur = c.NextInteraction(cur, r)
		seen[cur] = true
	}
	if !seen[StoreBid] {
		t.Fatal("composite mix should reach bid states")
	}
	if !seen[ViewItem] {
		t.Fatal("composite mix should reach browse states")
	}
	think := c.ThinkSeconds(r)
	if think < 0 {
		t.Fatalf("think = %v", think)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range browse fraction should panic")
		}
	}()
	NewCompositeMix(1.5)
}

func TestMixStationaryWriteFraction(t *testing.T) {
	m := BiddingMix()
	r := rng.NewSource(11).Stream("wf")
	writes := map[Interaction]bool{
		RegisterUser: true, RegisterItem: true, StoreBid: true,
		StoreBuyNow: true, StoreComment: true,
	}
	count := 0
	cur := m.Start
	const n = 100000
	for i := 0; i < n; i++ {
		cur = m.NextInteraction(cur, r)
		if writes[cur] {
			count++
		}
	}
	frac := float64(count) / n
	// The RUBiS bidding mix is ~10-15% read-write interactions; our
	// table should land in a sane band.
	if frac < 0.04 || frac > 0.2 {
		t.Fatalf("write fraction = %v", frac)
	}
}
