// Package rubis models the RUBiS auction-site benchmark (the eBay-like
// three-tier application the paper drives): the relational schema and
// dataset, the 26 client interaction types, and the browse/bid Markov
// transition tables that generate the two request compositions the paper
// reports.
//
// Interactions execute real queries against the rubisdb storage engine;
// their cost receipts plus the web-tier templating model produce the
// per-request resource demands that the tier servers replay in simulated
// time.
package rubis

import (
	"cmp"
	"math"

	"vwchar/internal/rng"
	"vwchar/internal/rubisdb"
)

// DatasetConfig scales the generated auction dataset. Defaults follow
// the RUBiS distribution's shape, scaled to keep experiment setup fast.
type DatasetConfig struct {
	Regions         int
	Categories      int
	Users           int
	ActiveItems     int
	OldItems        int
	BidsPerItem     int
	CommentsPerUser int
	BufferPages     int
}

// DefaultDataset returns the standard scaled dataset.
func DefaultDataset() DatasetConfig {
	return DatasetConfig{
		Regions:         62,
		Categories:      20,
		Users:           12000,
		ActiveItems:     3600,
		OldItems:        7800,
		BidsPerItem:     6,
		CommentsPerUser: 2,
		// BufferPages is sized below the dataset's working set so the
		// engine sustains a realistic miss stream (the paper's MySQL
		// tier shows continuous disk reads, not a one-time warmup).
		BufferPages: 950,
	}
}

// App is one populated RUBiS database plus its interaction logic.
type App struct {
	Engine *rubisdb.Engine
	Config DatasetConfig

	// catWeights and regWeights skew browsing toward popular categories
	// and regions (Zipf-like), giving the buffer pool a realistic hot
	// set instead of a uniform scan.
	catWeights []float64
	regWeights []float64

	users, items, bids, comments, buyNow, categories, regions *rubisdb.Table
	// The secondary indexes the interactions read, resolved once by bind.
	itemsByCategory, itemsBySeller, usersByRegion rubisdb.Index
	bidsByItem, bidsByUser, commentsByToUser      rubisdb.Index
	// name is the scratch buffer runtime writes format names into.
	name []byte

	// next hands out primary keys for runtime writes.
	next nextIDs

	// snap is non-nil while this App is an attached copy-on-write view
	// of a golden Snapshot; Release returns it to the snapshot's pool.
	snap *Snapshot
}

// nextIDs holds the next primary key of each table runtime writes grow.
type nextIDs struct{ item, bid, comment, buyNow, user int64 }

// NewApp creates the schema and populates the dataset using the given
// random stream.
func NewApp(cfg DatasetConfig, r *rng.Stream) (*App, error) {
	e := rubisdb.NewEngine(cfg.BufferPages, rubisdb.DefaultCostModel())
	if err := createSchema(e); err != nil {
		return nil, err
	}
	a := &App{Config: cfg}
	if err := a.bind(e); err != nil {
		return nil, err
	}
	if err := a.populate(r); err != nil {
		return nil, err
	}
	a.catWeights = zipfWeights(cfg.Categories, 1.1)
	a.regWeights = zipfWeights(cfg.Regions, 1.1)
	return a, nil
}

// zipfWeights returns weights proportional to 1/(rank+1)^skew.
func zipfWeights(n int, skew float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), skew)
	}
	return w
}

// tableDefs is the RUBiS schema createSchema builds: each table's columns,
// its int64 primary key and its secondary-indexed columns.
var tableDefs = []struct {
	name string
	cols rubisdb.Schema
	pk   string
	secs []string
}{
	{"regions", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "name", Type: rubisdb.TString},
	}, "id", nil},
	{"categories", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "name", Type: rubisdb.TString},
	}, "id", nil},
	{"users", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "nickname", Type: rubisdb.TString},
		{Name: "region", Type: rubisdb.TInt64},
		{Name: "rating", Type: rubisdb.TInt64},
		{Name: "balance", Type: rubisdb.TFloat64},
	}, "id", []string{"region"}},
	{"items", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "name", Type: rubisdb.TString},
		{Name: "description", Type: rubisdb.TString},
		{Name: "seller", Type: rubisdb.TInt64},
		{Name: "category", Type: rubisdb.TInt64},
		{Name: "initial_price", Type: rubisdb.TFloat64},
		{Name: "max_bid", Type: rubisdb.TFloat64},
		{Name: "nb_bids", Type: rubisdb.TInt64},
		{Name: "quantity", Type: rubisdb.TInt64},
		{Name: "buy_now", Type: rubisdb.TFloat64},
		{Name: "end_date", Type: rubisdb.TInt64},
	}, "id", []string{"seller", "category"}},
	{"bids", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "user", Type: rubisdb.TInt64},
		{Name: "item", Type: rubisdb.TInt64},
		{Name: "qty", Type: rubisdb.TInt64},
		{Name: "bid", Type: rubisdb.TFloat64},
		{Name: "date", Type: rubisdb.TInt64},
	}, "id", []string{"user", "item"}},
	{"comments", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "from_user", Type: rubisdb.TInt64},
		{Name: "to_user", Type: rubisdb.TInt64},
		{Name: "item", Type: rubisdb.TInt64},
		{Name: "rating", Type: rubisdb.TInt64},
		{Name: "text", Type: rubisdb.TString},
	}, "id", []string{"to_user", "item"}},
	{"buy_now", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "buyer", Type: rubisdb.TInt64},
		{Name: "item", Type: rubisdb.TInt64},
		{Name: "qty", Type: rubisdb.TInt64},
		{Name: "date", Type: rubisdb.TInt64},
	}, "id", []string{"buyer", "item"}},
}

// createSchema creates the RUBiS tables in e.
func createSchema(e *rubisdb.Engine) error {
	for _, tb := range tableDefs {
		if _, err := e.CreateTable(tb.name, tb.cols, tb.pk, tb.secs...); err != nil {
			return err
		}
	}
	return nil
}

// bind points the App at e, whose tables createSchema built (directly,
// or in the golden a view was sealed from), and resolves the tables and
// index handles the interactions use.
func (a *App) bind(e *rubisdb.Engine) (err error) {
	a.Engine = e
	table := func(name string) *rubisdb.Table {
		t, terr := e.Table(name)
		err = cmp.Or(err, terr)
		return t
	}
	a.users, a.items, a.bids, a.comments = table("users"), table("items"), table("bids"), table("comments")
	a.buyNow, a.categories, a.regions = table("buy_now"), table("categories"), table("regions")
	index := func(t *rubisdb.Table, column string) rubisdb.Index {
		if err != nil {
			return rubisdb.Index{}
		}
		ix, ierr := t.Index(column)
		err = ierr
		return ix
	}
	a.itemsByCategory, a.itemsBySeller = index(a.items, "category"), index(a.items, "seller")
	a.usersByRegion = index(a.users, "region")
	a.bidsByItem, a.bidsByUser = index(a.bids, "item"), index(a.bids, "user")
	a.commentsByToUser = index(a.comments, "to_user")
	return err
}

// Column positions in the schema createSchema builds, for reading
// borrowed tuples and for typed updates.
const (
	colID         = 0 // every table's primary key
	colItemSeller = 3
	colItemMaxBid = 6
	colItemNbBids = 7
	colBidUser    = 1
)

// itemDescription is the synthetic description text stored per item;
// its length drives tuple size, page counts, and therefore buffer pool
// behaviour.
const itemDescription = "Lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do " +
	"eiusmod tempor incididunt ut labore et dolore magna aliqua. Ut enim ad minim " +
	"veniam, quis nostrud exercitation ullamco laboris nisi ut aliquip ex ea commodo."

// commentText is the text stored with every comment.
const commentText = "Great seller, fast shipping, item exactly as described."

// appendPadded appends prefix + zero-padded i to dst, exactly like
// fmt.Sprintf(prefix+"%0<width>d", i) but without the fmt machinery.
// Writers take the result as string(b), a conversion that does not
// allocate because the writer copies the bytes.
func appendPadded(dst []byte, prefix string, i, width int) []byte {
	dst = append(dst, prefix...)
	start := len(dst)
	n := 1
	for lim := 10; n < width || i >= lim; lim *= 10 {
		n++
	}
	for j := 0; j < n; j++ {
		dst = append(dst, '0')
	}
	for p := len(dst) - 1; p >= start; p-- {
		dst[p] = byte('0' + i%10)
		i /= 10
	}
	return dst
}

// populate loads the dataset through the engine's sorted bulk path:
// every table's rows are generated in primary-key order and streamed
// column by column into a BulkWriter, which encodes each value straight
// into the heap tuple and builds the indexes with the B+tree bulk
// loader at Close. Columns are written in schema order, so the RNG draw
// sequence is the one row-at-a-time insertion would make.
func (a *App) populate(r *rng.Stream) error {
	cfg := a.Config
	totalItems := cfg.ActiveItems + cfg.OldItems
	var name [32]byte

	w := a.regions.BulkWriter(cfg.Regions)
	for i := 0; i < cfg.Regions; i++ {
		w.Int(int64(i))
		w.String(string(appendPadded(name[:0], "region-", i, 2)))
		w.EndRow()
	}
	if err := w.Close(); err != nil {
		return err
	}
	w = a.categories.BulkWriter(cfg.Categories)
	for i := 0; i < cfg.Categories; i++ {
		w.Int(int64(i))
		w.String(string(appendPadded(name[:0], "category-", i, 2)))
		w.EndRow()
	}
	if err := w.Close(); err != nil {
		return err
	}
	w = a.users.BulkWriter(cfg.Users)
	for i := 0; i < cfg.Users; i++ {
		w.Int(int64(i))
		w.String(string(appendPadded(name[:0], "user", i, 6)))
		w.Int(int64(r.Intn(cfg.Regions)))
		w.Int(int64(r.Intn(10)))
		w.Float(r.Uniform(0, 1000))
		w.EndRow()
	}
	if err := w.Close(); err != nil {
		return err
	}
	a.next.user = int64(cfg.Users)

	w = a.items.BulkWriter(totalItems)
	for i := 0; i < totalItems; i++ {
		price := r.Uniform(1, 500)
		w.Int(int64(i))
		w.String(string(appendPadded(name[:0], "item-", i, 6)))
		w.String(itemDescription)
		w.Int(int64(r.Intn(cfg.Users)))
		w.Int(int64(r.Intn(cfg.Categories)))
		w.Float(price)
		w.Float(price)
		w.Int(0)
		w.Int(int64(1 + r.Intn(5)))
		w.Float(price * 1.6)
		w.Int(int64(i % 2)) // half "ended", half active (end_date flag)
		w.EndRow()
	}
	if err := w.Close(); err != nil {
		return err
	}
	a.next.item = int64(totalItems)

	bidID := int64(0)
	w = a.bids.BulkWriter(poissonHint(totalItems * cfg.BidsPerItem))
	for i := 0; i < totalItems; i++ {
		n := r.Poisson(float64(cfg.BidsPerItem))
		for b := 0; b < n; b++ {
			w.Int(bidID)
			w.Int(int64(r.Intn(cfg.Users)))
			w.Int(int64(i))
			w.Int(1)
			w.Float(r.Uniform(1, 800))
			w.Int(int64(b))
			w.EndRow()
			bidID++
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	a.next.bid = bidID

	commentID := int64(0)
	w = a.comments.BulkWriter(poissonHint(cfg.Users * cfg.CommentsPerUser))
	for u := 0; u < cfg.Users; u++ {
		n := r.Poisson(float64(cfg.CommentsPerUser))
		for c := 0; c < n; c++ {
			w.Int(commentID)
			w.Int(int64(r.Intn(cfg.Users)))
			w.Int(int64(u))
			w.Int(int64(r.Intn(totalItems)))
			w.Int(int64(r.Intn(10)))
			w.String(commentText)
			w.EndRow()
			commentID++
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	a.next.comment = commentID
	// Warm checkpoint so runtime write-back reflects steady state.
	return a.Engine.Checkpoint()
}

// poissonHint sizes a writer for a sum of Poisson draws with the given
// mean: the mean plus a margin several standard deviations wide, so the
// index entry lists almost never regrow.
func poissonHint(mean int) int { return mean + mean/8 + 64 }

// TotalItems reports how many items exist right now.
func (a *App) TotalItems() int64 { return a.next.item }

// TotalUsers reports how many users exist right now.
func (a *App) TotalUsers() int64 { return a.next.user }
