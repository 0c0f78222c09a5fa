package rubis

// Per-interaction cacheability: which RUBiS pages can be served from a
// memcache-like fragment cache, what entity id keys each fragment, and
// which fragments a write invalidates. The declarations live here — next
// to the interaction definitions — so the cache tier (internal/tiers,
// internal/cachetier) stays ignorant of RUBiS semantics: ExecuteInto
// stamps every Result with its cache key and its invalidation set, and
// the serving path consumes them as plain values.
//
// The cacheable set is the read pages whose DB work is a pure function
// of one session focus entity. Transactional read pages (BuyNow, PutBid,
// PutComment) are deliberately not cacheable: they precede writes and a
// stale bid count there would corrupt the write they set up. Static and
// app-tier-cached menu pages have no DB work to cache.

// CacheRef identifies one cacheable page fragment: the interaction kind
// plus the entity id the fragment is keyed on.
type CacheRef struct {
	Kind Interaction
	ID   int64
}

// cacheEntity selects which Session focus field keys a fragment.
type cacheEntity uint8

const (
	entNone cacheEntity = iota
	entItem
	entUser
	entToUser
	entCategory
	entRegion
)

func (e cacheEntity) id(sess *Session) int64 {
	switch e {
	case entItem:
		return sess.ItemID
	case entUser:
		return sess.UserID
	case entToUser:
		return sess.ToUserID
	case entCategory:
		return sess.CategoryID
	case entRegion:
		return sess.RegionID
	}
	return 0
}

// cacheEntityByKind declares the cacheable read pages and their key
// entity. Every entry is a page whose DB work depends only on that
// entity; none of them mutates its own key field during execution, so
// the key is stable whether read before or after the interaction runs.
var cacheEntityByKind = [NumInteractions]cacheEntity{
	SearchItemsInCategory: entCategory,
	SearchItemsInRegion:   entRegion,
	ViewItem:              entItem,
	ViewUserInfo:          entToUser,
	ViewBidHistory:        entItem,
	AboutMe:               entUser,
}

// invalEntry is one fragment a write invalidates: the cached kind and
// the session field carrying the entity id at write time.
type invalEntry struct {
	kind Interaction
	ent  cacheEntity
}

// invalByKind declares the write-side invalidation sets. A write
// invalidates every cached fragment its rows feed: a new bid changes
// the item page, its bid history, and the bidder's AboutMe; a new item
// changes its category's search page and the seller's AboutMe; a new
// comment changes the target user's profile.
var invalByKind = [NumInteractions][]invalEntry{
	StoreBid:     {{ViewItem, entItem}, {ViewBidHistory, entItem}, {AboutMe, entUser}},
	StoreBuyNow:  {{ViewItem, entItem}},
	StoreComment: {{ViewUserInfo, entToUser}, {AboutMe, entToUser}},
	RegisterItem: {{SearchItemsInCategory, entCategory}, {AboutMe, entUser}},
}

// maxInval bounds the invalidation fan-out of one write.
const maxInval = 3

// fillCache stamps the executed interaction's cache attribution into
// res: the fragment key when the page is cacheable, and the
// invalidation set when it is a write. Pure — no RNG draws, no session
// mutation — so enabling a cache tier downstream never perturbs the
// workload's random sequence.
func fillCache(res *Result, sess *Session) {
	kind := res.Interaction
	if ent := cacheEntityByKind[kind]; ent != entNone {
		res.Cacheable = true
		res.CacheKey = CacheRef{Kind: kind, ID: ent.id(sess)}
	}
	if res.IsWrite {
		for _, iv := range invalByKind[kind] {
			res.Inval[res.NInval] = CacheRef{Kind: iv.kind, ID: iv.ent.id(sess)}
			res.NInval++
		}
	}
}
