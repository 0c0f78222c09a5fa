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

	// nextItemID etc. hand out primary keys for runtime writes.
	nextItemID    int64
	nextBidID     int64
	nextCommentID int64
	nextBuyNowID  int64
	nextUserID    int64

	// snap is non-nil while this App is an attached copy-on-write view
	// of a golden Snapshot; Release returns it to the snapshot's pool.
	snap *Snapshot
}

// NewApp creates the schema and populates the dataset using the given
// random stream.
func NewApp(cfg DatasetConfig, r *rng.Stream) (*App, error) {
	a := &App{
		Engine: rubisdb.NewEngine(cfg.BufferPages, rubisdb.DefaultCostModel()),
		Config: cfg,
	}
	if err := a.createSchema(); err != nil {
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

func (a *App) createSchema() error {
	var err error
	a.regions, err = a.Engine.CreateTable("regions", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "name", Type: rubisdb.TString},
	}, "id")
	if err != nil {
		return err
	}
	a.categories, err = a.Engine.CreateTable("categories", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "name", Type: rubisdb.TString},
	}, "id")
	if err != nil {
		return err
	}
	a.users, err = a.Engine.CreateTable("users", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "nickname", Type: rubisdb.TString},
		{Name: "region", Type: rubisdb.TInt64},
		{Name: "rating", Type: rubisdb.TInt64},
		{Name: "balance", Type: rubisdb.TFloat64},
	}, "id", "region")
	if err != nil {
		return err
	}
	a.items, err = a.Engine.CreateTable("items", rubisdb.Schema{
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
	}, "id", "seller", "category")
	if err != nil {
		return err
	}
	a.bids, err = a.Engine.CreateTable("bids", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "user", Type: rubisdb.TInt64},
		{Name: "item", Type: rubisdb.TInt64},
		{Name: "qty", Type: rubisdb.TInt64},
		{Name: "bid", Type: rubisdb.TFloat64},
		{Name: "date", Type: rubisdb.TInt64},
	}, "id", "user", "item")
	if err != nil {
		return err
	}
	a.comments, err = a.Engine.CreateTable("comments", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "from_user", Type: rubisdb.TInt64},
		{Name: "to_user", Type: rubisdb.TInt64},
		{Name: "item", Type: rubisdb.TInt64},
		{Name: "rating", Type: rubisdb.TInt64},
		{Name: "text", Type: rubisdb.TString},
	}, "id", "to_user", "item")
	if err != nil {
		return err
	}
	a.buyNow, err = a.Engine.CreateTable("buy_now", rubisdb.Schema{
		{Name: "id", Type: rubisdb.TInt64},
		{Name: "buyer", Type: rubisdb.TInt64},
		{Name: "item", Type: rubisdb.TInt64},
		{Name: "qty", Type: rubisdb.TInt64},
		{Name: "date", Type: rubisdb.TInt64},
	}, "id", "buyer", "item")
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

// paddedName formats prefix + zero-padded i exactly like
// fmt.Sprintf(prefix+"%0<width>d", i) but without the fmt machinery: the
// dataset population names a few thousand rows per replication, and the
// sweep runs hundreds of replications.
func paddedName(prefix string, i, width int) string {
	var b [32]byte
	buf := append(b[:0], prefix...)
	start := len(buf)
	n := 1
	for lim := 10; n < width || i >= lim; lim *= 10 {
		n++
	}
	for j := 0; j < n; j++ {
		buf = append(buf, '0')
	}
	for p := len(buf) - 1; p >= start; p-- {
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf)
}

// intBoxes caches boxed int64 values for the dense id ranges the
// dataset generators emit. Every int64 column in a Row is an `any`, so
// naive row building boxes each value through runtime.convT64 — ~10% of
// a sweep's CPU, since population runs per replication. Ids, foreign
// keys, and small draws are all dense non-negative ranges, so one
// grow-on-demand box table serves them all; values outside the cap fall
// back to ordinary boxing.
type intBoxes []any

// populateBoxCap bounds the cache; sequential bid/comment ids are the
// largest dense range (tens of thousands at default scale).
const populateBoxCap = 1 << 20

// newIntBoxes pre-fills boxes for [0, n).
func newIntBoxes(n int) intBoxes {
	b := make(intBoxes, n)
	for i := range b {
		b[i] = int64(i)
	}
	return b
}

// v returns a cached box for v, extending the cache for sequentially
// growing id ranges.
func (b *intBoxes) v(v int64) any {
	if v < 0 || v >= populateBoxCap {
		return v
	}
	for int64(len(*b)) <= v {
		*b = append(*b, int64(len(*b)))
	}
	return (*b)[v]
}

// i boxes an int draw.
func (b *intBoxes) i(v int) any { return b.v(int64(v)) }

// populate loads the dataset through the engine's sorted bulk path:
// every table's rows are generated in primary-key order (the RNG draw
// sequence is identical to row-at-a-time insertion), appended to the
// heap once, and indexed via the B+tree bulk loader — instead of ~60k
// one-at-a-time Insert descents at the start of every replication.
// Int64 values go through the intBoxes cache, so row building does not
// re-box the same dense ids replication after replication.
func (a *App) populate(r *rng.Stream) error {
	cfg := a.Config
	totalItems := cfg.ActiveItems + cfg.OldItems
	box := newIntBoxes(max(cfg.Users, totalItems))
	rows := make([]rubisdb.Row, 0, cfg.Regions)
	for i := 0; i < cfg.Regions; i++ {
		rows = append(rows, rubisdb.Row{box.i(i), paddedName("region-", i, 2)})
	}
	if err := a.regions.BulkInsert(rows); err != nil {
		return err
	}
	rows = make([]rubisdb.Row, 0, cfg.Categories)
	for i := 0; i < cfg.Categories; i++ {
		rows = append(rows, rubisdb.Row{box.i(i), paddedName("category-", i, 2)})
	}
	if err := a.categories.BulkInsert(rows); err != nil {
		return err
	}
	rows = make([]rubisdb.Row, 0, cfg.Users)
	for i := 0; i < cfg.Users; i++ {
		rows = append(rows, rubisdb.Row{
			box.i(i),
			paddedName("user", i, 6),
			box.i(r.Intn(cfg.Regions)),
			box.i(r.Intn(10)),
			r.Uniform(0, 1000),
		})
	}
	if err := a.users.BulkInsert(rows); err != nil {
		return err
	}
	a.nextUserID = int64(cfg.Users)

	rows = make([]rubisdb.Row, 0, totalItems)
	for i := 0; i < totalItems; i++ {
		price := r.Uniform(1, 500)
		rows = append(rows, rubisdb.Row{
			box.i(i),
			paddedName("item-", i, 6),
			itemDescription,
			box.i(r.Intn(cfg.Users)),
			box.i(r.Intn(cfg.Categories)),
			price,
			price,
			box.i(0),
			box.i(1 + r.Intn(5)),
			price * 1.6,
			box.i(i % 2), // half "ended", half active (end_date flag)
		})
	}
	if err := a.items.BulkInsert(rows); err != nil {
		return err
	}
	a.nextItemID = int64(totalItems)

	bidID := int64(0)
	rows = rows[:0]
	for i := 0; i < totalItems; i++ {
		n := r.Poisson(float64(cfg.BidsPerItem))
		for b := 0; b < n; b++ {
			rows = append(rows, rubisdb.Row{
				box.v(bidID),
				box.i(r.Intn(cfg.Users)),
				box.i(i),
				box.i(1),
				r.Uniform(1, 800),
				box.i(b),
			})
			bidID++
		}
	}
	if err := a.bids.BulkInsert(rows); err != nil {
		return err
	}
	a.nextBidID = bidID

	commentID := int64(0)
	rows = rows[:0]
	for u := 0; u < cfg.Users; u++ {
		n := r.Poisson(float64(cfg.CommentsPerUser))
		for c := 0; c < n; c++ {
			rows = append(rows, rubisdb.Row{
				box.v(commentID),
				box.i(r.Intn(cfg.Users)),
				box.i(u),
				box.i(r.Intn(totalItems)),
				box.i(r.Intn(10)),
				"Great seller, fast shipping, item exactly as described.",
			})
			commentID++
		}
	}
	if err := a.comments.BulkInsert(rows); err != nil {
		return err
	}
	a.nextCommentID = commentID
	a.nextBuyNowID = 0
	// Warm checkpoint so runtime write-back reflects steady state.
	return a.Engine.Checkpoint()
}

// TotalItems reports how many items exist right now.
func (a *App) TotalItems() int64 { return a.nextItemID }

// TotalUsers reports how many users exist right now.
func (a *App) TotalUsers() int64 { return a.nextUserID }
