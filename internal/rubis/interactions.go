package rubis

import (
	"fmt"

	"vwchar/internal/rng"
	"vwchar/internal/rubisdb"
)

// Interaction is one of the 26 RUBiS request types. Its value is the
// kind's dense index in AllInteractions() order, so per-kind tables are
// arrays indexed by the kind itself.
type Interaction uint8

// The 26 RUBiS interactions (RUBiS 1.4.x state set).
const (
	Home Interaction = iota
	Register
	RegisterUser
	Browse
	BrowseCategories
	SearchItemsInCategory
	BrowseRegions
	BrowseCategoriesInRegion
	SearchItemsInRegion
	ViewItem
	ViewUserInfo
	ViewBidHistory
	BuyNowAuth
	BuyNow
	StoreBuyNow
	PutBidAuth
	PutBid
	StoreBid
	PutCommentAuth
	PutComment
	StoreComment
	Sell
	SelectCategoryToSellItem
	SellItemForm
	RegisterItem
	AboutMe

	// NumInteractions is the number of distinct RUBiS interaction kinds.
	NumInteractions = iota
)

// interactionNames holds each kind's RUBiS name, in index order.
var interactionNames = [NumInteractions]string{
	"Home", "Register", "RegisterUser", "Browse", "BrowseCategories",
	"SearchItemsInCategory", "BrowseRegions", "BrowseCategoriesInRegion",
	"SearchItemsInRegion", "ViewItem", "ViewUserInfo", "ViewBidHistory",
	"BuyNowAuth", "BuyNow", "StoreBuyNow", "PutBidAuth", "PutBid", "StoreBid",
	"PutCommentAuth", "PutComment", "StoreComment", "Sell",
	"SelectCategoryToSellItem", "SellItemForm", "RegisterItem", "AboutMe",
}

// String returns the RUBiS name of the kind, or Interaction(N) for a
// value outside the 26 kinds.
func (i Interaction) String() string {
	if i < NumInteractions {
		return interactionNames[i]
	}
	return fmt.Sprintf("Interaction(%d)", uint8(i))
}

// AllInteractions lists every interaction type in index order.
func AllInteractions() []Interaction {
	out := make([]Interaction, NumInteractions)
	for i := range out {
		out[i] = Interaction(i)
	}
	return out
}

// CostParams converts logical interaction work into web-tier demand.
type CostParams struct {
	// WebBaseCycles is per-request PHP dispatch/session overhead.
	WebBaseCycles float64
	// WebCyclesPerHTMLByte is templating cost per generated byte.
	WebCyclesPerHTMLByte float64
	// WebCyclesPerDBByte is unmarshalling cost per DB reply byte.
	WebCyclesPerDBByte float64
	// RequestBytes is the mean client request size (URL + headers).
	RequestBytes float64
	// HTMLNoiseCV randomizes response sizes (ads, session blocks).
	HTMLNoiseCV float64
}

// DefaultCostParams returns the calibrated web/app tier cost model.
func DefaultCostParams() CostParams {
	return CostParams{
		WebBaseCycles:        0.55e6,
		WebCyclesPerHTMLByte: 250,
		WebCyclesPerDBByte:   30,
		RequestBytes:         460,
		HTMLNoiseCV:          0.18,
	}
}

// QueryCost is the cost of one web→DB call.
type QueryCost struct {
	// Receipt is the storage engine's metered work.
	Receipt rubisdb.Receipt
	// RequestBytes is the SQL text + protocol sent to the DB.
	RequestBytes float64
	// ReplyBytes is the projected result set returned to the app tier
	// (selected columns only, not full tuples).
	ReplyBytes float64
}

// MaxQueries bounds the DB calls one interaction issues (AboutMe issues
// the most). ExecuteInto sizes a fresh Result's Queries to it, so a
// Result reused across interactions never regrows its query buffer.
const MaxQueries = 4

// Result is the full cost breakdown of one executed interaction.
type Result struct {
	Interaction   Interaction
	RequestBytes  float64
	ResponseBytes float64
	WebCycles     float64
	Queries       []QueryCost
	IsWrite       bool

	// Cacheable marks the DB work as servable from a fragment cache;
	// CacheKey is then the fragment's identity (see cache.go).
	Cacheable bool
	CacheKey  CacheRef
	// Inval[:NInval] lists the fragments this write invalidates.
	Inval  [maxInval]CacheRef
	NInval uint8
}

// DBTransferBytes sums request+reply bytes across all queries.
func (r *Result) DBTransferBytes() (toDB, fromDB float64) {
	for _, q := range r.Queries {
		toDB += q.RequestBytes
		fromDB += q.ReplyBytes
	}
	return toDB, fromDB
}

// TotalDBCycles sums the DB CPU demand across all queries.
func (r *Result) TotalDBCycles() float64 {
	total := 0.0
	for _, q := range r.Queries {
		total += q.Receipt.CPUCycles
	}
	return total
}

// Session carries the per-client browsing focus between interactions.
type Session struct {
	UserID     int64
	ItemID     int64
	CategoryID int64
	RegionID   int64
	ToUserID   int64
}

// htmlSizes is the base generated-page size per interaction, before
// per-row rendering. Calibrated against RUBiS PHP page weights.
var htmlSizes = [NumInteractions]float64{
	Home: 2900, Register: 3600, RegisterUser: 2500,
	Browse: 3100, BrowseCategories: 4100, SearchItemsInCategory: 5200,
	BrowseRegions: 3900, BrowseCategoriesInRegion: 4100,
	SearchItemsInRegion: 4800, ViewItem: 8400, ViewUserInfo: 4500,
	ViewBidHistory: 5500, BuyNowAuth: 3200, BuyNow: 7400,
	StoreBuyNow: 2500, PutBidAuth: 3200, PutBid: 7700, StoreBid: 2500,
	PutCommentAuth: 3200, PutComment: 5800, StoreComment: 2500,
	Sell: 4000, SelectCategoryToSellItem: 4100, SellItemForm: 4800,
	RegisterItem: 2900, AboutMe: 6800,
}

// Projected per-row reply widths (bytes) for the column sets each page
// actually selects. The MySQL wire format for these pages is compact:
// numeric ids plus short projected strings.
const (
	rowItemList  = 22 // id, price, end flag
	rowItemFull  = 180
	rowUser      = 32
	rowBid       = 26
	rowComment   = 60
	perRowHTML   = 430 // HTML rendered per listed row
	queryReqBase = 30  // SQL text + protocol per query
	searchLimit  = 20  // items per result page
)

// query executes fn against the engine, capturing its receipt.
func (a *App) query(res *Result, replyBytes float64, fn func() error) error {
	snap := a.Engine.Meter()
	if err := fn(); err != nil {
		return err
	}
	res.Queries = append(res.Queries, QueryCost{
		Receipt:      a.Engine.ReceiptSince(snap),
		RequestBytes: queryReqBase,
		ReplyBytes:   replyBytes,
	})
	return nil
}

// insert stores the row written to w as one write query.
func (a *App) insert(res *Result, w *rubisdb.RowWriter) error {
	res.IsWrite = true
	return a.query(res, 24, func() error {
		_, err := w.Insert()
		return err
	})
}

// Execute runs one interaction against the database and returns its cost
// breakdown. The session focus fields are updated so that subsequent
// interactions chain plausibly (a ViewItem follows a search, a StoreBid
// follows a PutBid on the same item).
func (a *App) Execute(kind Interaction, sess *Session, r *rng.Stream, params CostParams) (*Result, error) {
	res := new(Result)
	if err := a.ExecuteInto(res, kind, sess, r, params); err != nil {
		return nil, err
	}
	return res, nil
}

// ExecuteInto is Execute writing into a caller-owned Result, resetting
// it first and reusing its Queries backing array; a Result with no
// buffer yet gets one of MaxQueries once. The drivers keep one Result
// per session and recycle it every interaction, so the steady-state
// request path does not allocate a cost breakdown per page.
func (a *App) ExecuteInto(res *Result, kind Interaction, sess *Session, r *rng.Stream, params CostParams) error {
	qs := res.Queries[:0]
	if cap(qs) == 0 {
		qs = make([]QueryCost, 0, MaxQueries)
	}
	*res = Result{Interaction: kind, Queries: qs}
	rowsListed := 0.0

	switch kind {
	case Home, Register, Browse, BuyNowAuth, PutBidAuth, PutCommentAuth, Sell, SellItemForm:
		// Static pages: no DB work.

	case BrowseCategories, BrowseCategoriesInRegion, SelectCategoryToSellItem:
		// The category menu is rendered from the app tier's cached copy
		// (the menu tables change only on admin actions), so no DB round
		// trip happens — which is part of why the paper's MySQL network
		// trace is two orders of magnitude below the web tier's.
		rowsListed = float64(a.Config.Categories)
		sess.CategoryID = int64(r.Categorical(a.catWeights))

	case BrowseRegions:
		rowsListed = float64(a.Config.Regions) * 0.5
		sess.RegionID = int64(r.Categorical(a.regWeights))

	case SearchItemsInCategory:
		var ids [searchLimit]int64
		n := 0
		err := a.query(res, 0, func() error {
			var err error
			n, err = a.itemsByCategory.Read(sess.CategoryID, searchLimit, func(i int, t rubisdb.Tuple) {
				ids[i] = t.Int(colID)
			})
			return err
		})
		if err != nil {
			return err
		}
		res.Queries[len(res.Queries)-1].ReplyBytes = float64(n) * rowItemList
		rowsListed = float64(n)
		if n > 0 {
			sess.ItemID = ids[r.Intn(n)]
		}

	case SearchItemsInRegion:
		// One join query: sellers in the region and a few items each. The
		// seller ids are collected before any item is probed, so the page
		// touches keep the users-then-items order of the join.
		count := 0
		err := a.query(res, 0, func() error {
			var sellers [8]int64
			ns, err := a.usersByRegion.Read(sess.RegionID, len(sellers), func(i int, t rubisdb.Tuple) {
				sellers[i] = t.Int(colID)
			})
			if err != nil {
				return err
			}
			for _, s := range sellers[:ns] {
				var first int64
				n, err := a.itemsBySeller.Read(s, 3, func(i int, t rubisdb.Tuple) {
					if i == 0 {
						first = t.Int(colID)
					}
				})
				if err != nil {
					return err
				}
				count += n
				if n > 0 {
					sess.ItemID = first
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		res.Queries[len(res.Queries)-1].ReplyBytes = float64(count) * rowItemList
		rowsListed = float64(count)

	case ViewItem:
		var seller int64
		var found bool
		if err := a.query(res, rowItemFull, func() error {
			var err error
			found, err = a.items.ReadByPK(sess.ItemID, func(t rubisdb.Tuple) {
				seller = t.Int(colItemSeller)
			})
			return err
		}); err != nil {
			return err
		}
		if found {
			sess.ToUserID = seller
			if err := a.query(res, rowUser, func() error {
				_, err := a.users.ReadByPK(seller, nil)
				return err
			}); err != nil {
				return err
			}
		}
		if err := a.query(res, 16, func() error {
			_, err := a.bidsByItem.Count(sess.ItemID, sess.ItemID)
			return err
		}); err != nil {
			return err
		}
		rowsListed = 2

	case ViewUserInfo:
		if err := a.query(res, rowUser, func() error {
			_, err := a.users.ReadByPK(sess.ToUserID, nil)
			return err
		}); err != nil {
			return err
		}
		var n int
		if err := a.query(res, 0, func() error {
			var err error
			n, err = a.commentsByToUser.Read(sess.ToUserID, 10, nil)
			return err
		}); err != nil {
			return err
		}
		res.Queries[len(res.Queries)-1].ReplyBytes = float64(n) * rowComment
		rowsListed = float64(n)

	case ViewBidHistory:
		if err := a.query(res, rowItemList, func() error {
			_, err := a.items.ReadByPK(sess.ItemID, nil)
			return err
		}); err != nil {
			return err
		}
		// One join query: bids for the item with their bidders' names.
		// All bids are read before the first bidder lookup, as the join
		// fetches them.
		var n int
		if err := a.query(res, 0, func() error {
			var bidders [8]int64
			var err error
			n, err = a.bidsByItem.Read(sess.ItemID, len(bidders), func(i int, t rubisdb.Tuple) {
				bidders[i] = t.Int(colBidUser)
			})
			if err != nil {
				return err
			}
			for _, u := range bidders[:n] {
				if _, err := a.users.ReadByPK(u, nil); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		res.Queries[len(res.Queries)-1].ReplyBytes = float64(n) * (rowBid + rowUser)
		rowsListed = float64(n)

	case BuyNow, PutBid:
		if err := a.query(res, rowItemFull, func() error {
			_, err := a.items.ReadByPK(sess.ItemID, nil)
			return err
		}); err != nil {
			return err
		}
		if kind == PutBid {
			if err := a.query(res, 16, func() error {
				_, err := a.bidsByItem.Count(sess.ItemID, sess.ItemID)
				return err
			}); err != nil {
				return err
			}
		}
		rowsListed = 1

	case PutComment:
		if err := a.query(res, rowUser, func() error {
			_, err := a.users.ReadByPK(sess.ToUserID, nil)
			return err
		}); err != nil {
			return err
		}
		if err := a.query(res, rowItemList, func() error {
			_, err := a.items.ReadByPK(sess.ItemID, nil)
			return err
		}); err != nil {
			return err
		}
		rowsListed = 1

	case RegisterUser:
		id := a.next.user
		a.next.user++
		a.name = appendPadded(a.name[:0], "user", int(id), 6)
		w := a.users.Writer()
		w.Int(id)
		w.String(string(a.name))
		w.Int(int64(r.Intn(a.Config.Regions)))
		w.Int(0)
		w.Float(0)
		if err := a.insert(res, w); err != nil {
			return err
		}

	case RegisterItem:
		id := a.next.item
		a.next.item++
		price := r.Uniform(1, 500)
		a.name = appendPadded(a.name[:0], "item-", int(id), 6)
		w := a.items.Writer()
		w.Int(id)
		w.String(string(a.name))
		w.String(itemDescription)
		w.Int(sess.UserID)
		w.Int(sess.CategoryID)
		w.Float(price)
		w.Float(price)
		w.Int(0)
		w.Int(1)
		w.Float(price * 1.6)
		w.Int(0)
		if err := a.insert(res, w); err != nil {
			return err
		}
		sess.ItemID = id

	case StoreBid:
		id := a.next.bid
		a.next.bid++
		amount := r.Uniform(1, 900)
		w := a.bids.Writer()
		w.Int(id)
		w.Int(sess.UserID)
		w.Int(sess.ItemID)
		w.Int(1)
		w.Float(amount)
		w.Int(0)
		if err := a.insert(res, w); err != nil {
			return err
		}
		if err := a.query(res, 16, func() error {
			var nbBids int64
			found, err := a.items.ReadByPK(sess.ItemID, func(t rubisdb.Tuple) {
				nbBids = t.Int(colItemNbBids)
			})
			if err != nil || !found {
				return err
			}
			return a.items.UpdateNumeric(sess.ItemID,
				rubisdb.NumericUpdate{Col: colItemMaxBid, Float: amount},
				rubisdb.NumericUpdate{Col: colItemNbBids, Int: nbBids + 1})
		}); err != nil {
			return err
		}

	case StoreBuyNow:
		id := a.next.buyNow
		a.next.buyNow++
		w := a.buyNow.Writer()
		w.Int(id)
		w.Int(sess.UserID)
		w.Int(sess.ItemID)
		w.Int(1)
		w.Int(0)
		if err := a.insert(res, w); err != nil {
			return err
		}

	case StoreComment:
		id := a.next.comment
		a.next.comment++
		w := a.comments.Writer()
		w.Int(id)
		w.Int(sess.UserID)
		w.Int(sess.ToUserID)
		w.Int(sess.ItemID)
		w.Int(int64(r.Intn(10)))
		w.String(commentText)
		if err := a.insert(res, w); err != nil {
			return err
		}

	case AboutMe:
		if err := a.query(res, rowUser, func() error {
			_, err := a.users.ReadByPK(sess.UserID, nil)
			return err
		}); err != nil {
			return err
		}
		var n, nb, nc int
		if err := a.query(res, 0, func() error {
			var err error
			n, err = a.itemsBySeller.Read(sess.UserID, 5, nil)
			return err
		}); err != nil {
			return err
		}
		res.Queries[len(res.Queries)-1].ReplyBytes = float64(n) * rowItemList
		if err := a.query(res, 0, func() error {
			var err error
			nb, err = a.bidsByUser.Read(sess.UserID, 10, nil)
			return err
		}); err != nil {
			return err
		}
		res.Queries[len(res.Queries)-1].ReplyBytes = float64(nb) * rowBid
		if err := a.query(res, 0, func() error {
			var err error
			nc, err = a.commentsByToUser.Read(sess.UserID, 5, nil)
			return err
		}); err != nil {
			return err
		}
		res.Queries[len(res.Queries)-1].ReplyBytes = float64(nc) * rowComment
		rowsListed = float64(n + nb + nc)

	default:
		return fmt.Errorf("rubis: unknown interaction %q", kind)
	}

	// Web-tier costs from the interaction's page weight plus rendering.
	html := htmlSizes[kind] + rowsListed*perRowHTML
	html = r.LogNormalMean(html, params.HTMLNoiseCV)
	res.ResponseBytes = html
	res.RequestBytes = r.LogNormalMean(params.RequestBytes, 0.1)
	_, fromDB := res.DBTransferBytes()
	res.WebCycles = params.WebBaseCycles +
		params.WebCyclesPerHTMLByte*html +
		params.WebCyclesPerDBByte*fromDB
	fillCache(res, sess)
	return nil
}
