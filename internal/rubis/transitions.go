package rubis

import (
	"fmt"
	"math"

	"vwchar/internal/rng"
)

// Mix is a client behaviour model: a Markov chain over interactions plus
// a think-time distribution, as in the RUBiS client emulator's transition
// tables.
type Mix struct {
	// Name identifies the mix ("browsing", "bidding", "70/30", ...).
	Name string
	// ThinkMeanSeconds is the mean of the exponential think time. The
	// paper sets 7 s; the bidding mix's effective think time is longer
	// (form filling), which §4.1 uses to explain its smoother curves.
	ThinkMeanSeconds float64
	// Start is the session entry state.
	Start Interaction

	// table holds each state's outgoing edges; a state with no edges
	// has no row.
	table [NumInteractions]mixRow
}

type edge struct {
	to Interaction
	p  float64
}

// mixRow is one state's outgoing edges, split into destinations and the
// weight slice NextInteraction hands to Categorical as is, so a
// transition draws without building a weights slice per step.
type mixRow struct {
	to []Interaction
	w  []float64
}

func buildMix(name string, think float64, rows [NumInteractions][]edge) *Mix {
	m := &Mix{Name: name, ThinkMeanSeconds: think, Start: Home}
	for from, edges := range rows {
		row := mixRow{to: make([]Interaction, len(edges)), w: make([]float64, len(edges))}
		for i, e := range edges {
			row.to[i], row.w[i] = e.to, e.p
		}
		m.table[from] = row
	}
	if err := m.Validate(); err != nil {
		panic(err) // static tables are package data; a bad one is a bug
	}
	return m
}

// Validate checks that all rows are proper distributions over known
// states and that every state is reachable from Start.
func (m *Mix) Validate() error {
	for from, row := range m.table {
		sum := 0.0
		for i, to := range row.to {
			if to >= NumInteractions {
				return fmt.Errorf("rubis: mix %s: %s -> unknown %q", m.Name, Interaction(from), to)
			}
			if row.w[i] <= 0 {
				return fmt.Errorf("rubis: mix %s: %s -> %s has weight %v", m.Name, Interaction(from), to, row.w[i])
			}
			sum += row.w[i]
		}
		if len(row.to) > 0 && math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("rubis: mix %s: %s row sums to %v", m.Name, Interaction(from), sum)
		}
	}
	if m.Start >= NumInteractions || len(m.table[m.Start].to) == 0 {
		return fmt.Errorf("rubis: mix %s start state %q has no row", m.Name, m.Start)
	}
	// Reachability sweep.
	var seen [NumInteractions]bool
	seen[m.Start] = true
	frontier := []Interaction{m.Start}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, to := range m.table[cur].to {
			if !seen[to] {
				seen[to] = true
				frontier = append(frontier, to)
			}
		}
	}
	for from, row := range m.table {
		if len(row.to) > 0 && !seen[from] {
			return fmt.Errorf("rubis: mix %s state %q unreachable from %s", m.Name, Interaction(from), m.Start)
		}
	}
	return nil
}

// BrowsingMix returns the paper's read-only "browsing" composition.
func BrowsingMix() *Mix {
	return buildMix("browsing", 7.0, [NumInteractions][]edge{
		Home:                     {{Browse, 1}},
		Browse:                   {{BrowseCategories, 0.55}, {BrowseRegions, 0.45}},
		BrowseCategories:         {{SearchItemsInCategory, 1}},
		BrowseRegions:            {{BrowseCategoriesInRegion, 0.7}, {SearchItemsInRegion, 0.3}},
		BrowseCategoriesInRegion: {{SearchItemsInRegion, 1}},
		SearchItemsInCategory: {
			{ViewItem, 0.5}, {SearchItemsInCategory, 0.3}, {Browse, 0.2}},
		SearchItemsInRegion: {
			{ViewItem, 0.5}, {SearchItemsInRegion, 0.3}, {Browse, 0.2}},
		ViewItem: {
			{ViewUserInfo, 0.25}, {ViewBidHistory, 0.25},
			{SearchItemsInCategory, 0.3}, {Browse, 0.2}},
		ViewUserInfo: {
			{SearchItemsInCategory, 0.5}, {Browse, 0.3}, {ViewItem, 0.2}},
		ViewBidHistory: {
			{ViewItem, 0.4}, {SearchItemsInCategory, 0.4}, {Browse, 0.2}},
	})
}

// BiddingMix returns the paper's "bidding" composition (the RUBiS
// default read-write mix, ~10-15% writes).
func BiddingMix() *Mix {
	return buildMix("bidding", 8.4, [NumInteractions][]edge{
		Home:                     {{Browse, 0.85}, {Register, 0.06}, {Sell, 0.05}, {AboutMe, 0.04}},
		Register:                 {{RegisterUser, 1}},
		RegisterUser:             {{Browse, 0.6}, {Home, 0.4}},
		Browse:                   {{BrowseCategories, 0.6}, {BrowseRegions, 0.4}},
		BrowseCategories:         {{SearchItemsInCategory, 1}},
		BrowseRegions:            {{BrowseCategoriesInRegion, 0.6}, {SearchItemsInRegion, 0.4}},
		BrowseCategoriesInRegion: {{SearchItemsInRegion, 1}},
		SearchItemsInCategory: {
			{ViewItem, 0.55}, {SearchItemsInCategory, 0.25}, {Browse, 0.2}},
		SearchItemsInRegion: {
			{ViewItem, 0.55}, {SearchItemsInRegion, 0.25}, {Browse, 0.2}},
		ViewItem: {
			{PutBidAuth, 0.32}, {BuyNowAuth, 0.1}, {ViewUserInfo, 0.1},
			{ViewBidHistory, 0.13}, {SearchItemsInCategory, 0.22}, {Browse, 0.13}},
		ViewUserInfo: {
			{PutCommentAuth, 0.2}, {SearchItemsInCategory, 0.42},
			{Browse, 0.23}, {ViewItem, 0.15}},
		ViewBidHistory: {
			{ViewItem, 0.4}, {SearchItemsInCategory, 0.4}, {Browse, 0.2}},
		BuyNowAuth:  {{BuyNow, 1}},
		BuyNow:      {{StoreBuyNow, 0.65}, {ViewItem, 0.35}},
		StoreBuyNow: {{Browse, 0.5}, {Home, 0.3}, {AboutMe, 0.2}},
		PutBidAuth:  {{PutBid, 1}},
		PutBid:      {{StoreBid, 0.8}, {ViewItem, 0.2}},
		StoreBid: {
			{Browse, 0.5}, {SearchItemsInCategory, 0.3}, {AboutMe, 0.2}},
		PutCommentAuth:           {{PutComment, 1}},
		PutComment:               {{StoreComment, 0.85}, {ViewItem, 0.15}},
		StoreComment:             {{Browse, 0.6}, {Home, 0.4}},
		Sell:                     {{SelectCategoryToSellItem, 0.7}, {SellItemForm, 0.3}},
		SelectCategoryToSellItem: {{SellItemForm, 1}},
		SellItemForm:             {{RegisterItem, 0.9}, {Sell, 0.1}},
		RegisterItem:             {{Browse, 0.5}, {Sell, 0.2}, {AboutMe, 0.3}},
		AboutMe:                  {{Browse, 0.6}, {ViewItem, 0.25}, {Home, 0.15}},
	})
}

// CompositeMix interleaves the browsing and bidding chains: each step
// follows the browsing table with probability browseFraction, else the
// bidding table. The paper's 30/70, 50/50 and 70/30 compositions are
// instances.
type CompositeMix struct {
	Name           string
	BrowseFraction float64
	browse, bid    *Mix
}

// NewCompositeMix builds an interleaved mix.
func NewCompositeMix(browseFraction float64) *CompositeMix {
	if browseFraction < 0 || browseFraction > 1 {
		panic(fmt.Sprintf("rubis: browse fraction %v out of [0,1]", browseFraction))
	}
	return &CompositeMix{
		Name:           fmt.Sprintf("%d%%browse-%d%%bid", int(browseFraction*100+0.5), int((1-browseFraction)*100+0.5)),
		BrowseFraction: browseFraction,
		browse:         BrowsingMix(),
		bid:            BiddingMix(),
	}
}

// Model is the behaviour interface the workload driver consumes.
type Model interface {
	// MixName identifies the composition for reports.
	MixName() string
	// NextInteraction draws the state after cur.
	NextInteraction(cur Interaction, r *rng.Stream) Interaction
	// ThinkSeconds draws a think time.
	ThinkSeconds(r *rng.Stream) float64
	// StartState is the session entry interaction.
	StartState() Interaction
}

// MixName implements Model.
func (m *Mix) MixName() string { return m.Name }

// NextInteraction implements Model: it draws the interaction following
// cur. States without a row (e.g. after switching mixes mid-session)
// restart at Start.
func (m *Mix) NextInteraction(cur Interaction, r *rng.Stream) Interaction {
	if cur < NumInteractions {
		if row := &m.table[cur]; len(row.to) > 0 {
			return row.to[r.Categorical(row.w)]
		}
	}
	return m.Start
}

// ThinkSeconds implements Model: it draws a think time in seconds.
func (m *Mix) ThinkSeconds(r *rng.Stream) float64 { return r.Exp(m.ThinkMeanSeconds) }

// StartState implements Model.
func (m *Mix) StartState() Interaction { return m.Start }

// MixName implements Model.
func (c *CompositeMix) MixName() string { return c.Name }

// NextInteraction implements Model.
func (c *CompositeMix) NextInteraction(cur Interaction, r *rng.Stream) Interaction {
	if r.Bernoulli(c.BrowseFraction) {
		return c.browse.NextInteraction(cur, r)
	}
	return c.bid.NextInteraction(cur, r)
}

// ThinkSeconds implements Model.
func (c *CompositeMix) ThinkSeconds(r *rng.Stream) float64 {
	mean := c.BrowseFraction*c.browse.ThinkMeanSeconds + (1-c.BrowseFraction)*c.bid.ThinkMeanSeconds
	return r.Exp(mean)
}

// StartState implements Model.
func (c *CompositeMix) StartState() Interaction { return Home }
