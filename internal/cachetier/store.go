package cachetier

import "vwchar/internal/sim"

// Key identifies one cached page fragment: the interaction's dense kind
// index plus the entity id the fragment is keyed on (rubis.CacheRef
// carries the same pair; tiers converts between them without this
// package importing rubis).
type Key struct {
	Kind uint8
	ID   int64
}

// Outcome is the result of one cache lookup.
type Outcome uint8

const (
	// Hit: the fragment is resident and fresh.
	Hit Outcome = iota
	// Miss: the caller must fetch from the DB and Put (or AbortFetch).
	Miss
	// WaitLease: another fetch holds the fill lease; the caller should
	// park until the fill lands or the lease times out.
	WaitLease
)

// String names the outcome for logs and tests.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case WaitLease:
		return "wait-lease"
	}
	return "unknown"
}

// Stats is the store's cumulative accounting. Counters are monotonic
// across Reset (cold restarts) so telemetry can difference them.
type Stats struct {
	Expiries      uint64
	Evictions     uint64
	Invalidations uint64
	// Stampedes counts keys that ever had a second concurrent fetch in
	// flight (one thundering-herd episode per key fill); StampedeFetches
	// counts every redundant concurrent fetch beyond the first.
	Stampedes, StampedeFetches uint64
	// LeaseWaits counts lookups parked behind a fill lease;
	// LeaseTakeovers counts leases that expired and were re-acquired.
	LeaseWaits, LeaseTakeovers uint64
}

const (
	stateFetching uint8 = iota
	stateValid
)

const nilIdx = int32(-1)

// entry is one slab slot. Valid entries sit on the intrusive LRU list;
// fetching placeholders (a fill in flight) are indexed but unlisted.
type entry struct {
	key        Key
	bytes      float64
	expireAt   sim.Time
	leaseAt    sim.Time
	fetchers   int32
	state      uint8
	prev, next int32
}

// Store is the deterministic cache state machine: bounded LRU over
// entry count and payload bytes, lazy TTL expiry, write invalidation,
// and optional single-flight fill leases. It keeps no clock — callers
// pass the simulated now — and draws no randomness, so identical call
// sequences produce identical state on every run.
type Store struct {
	spec     CacheSpec
	ttl      sim.Time
	leaseTTL sim.Time
	maxBytes float64

	idx        map[Key]int32
	slab       []entry
	free       int32
	head, tail int32
	used       float64
	valid      int

	// Stats is the cumulative accounting; read-only for callers.
	Stats Stats
}

// NewStore builds a store from a spec (defaults applied here).
func NewStore(spec CacheSpec) *Store {
	spec = spec.WithDefaults()
	return &Store{
		spec:     spec,
		ttl:      sim.Seconds(spec.TTLSeconds),
		leaseTTL: sim.Time(spec.LeaseTimeoutMillis * float64(sim.Millisecond)),
		maxBytes: spec.MaxBytes(),
		idx:      make(map[Key]int32, spec.MaxEntries),
		free:     nilIdx,
		head:     nilIdx,
		tail:     nilIdx,
	}
}

// UsedBytes is the resident payload byte total.
func (s *Store) UsedBytes() float64 { return s.used }

// Lookup resolves key at the simulated time now. On Miss the caller
// becomes a filler and must eventually Put or AbortFetch the key.
func (s *Store) Lookup(now sim.Time, k Key) (Outcome, float64) {
	if i, ok := s.idx[k]; ok {
		e := &s.slab[i]
		if e.state == stateValid {
			if now < e.expireAt {
				s.lruFront(i)
				return Hit, e.bytes
			}
			// Expired in place: first toucher becomes the filler.
			s.Stats.Expiries++
			s.lruRemove(i)
			s.used -= e.bytes
			s.valid--
			e.state = stateFetching
			e.bytes = 0
			e.fetchers = 1
			e.leaseAt = now
			return Miss, 0
		}
		// A fill is already in flight.
		if s.spec.Leases && now-e.leaseAt < s.leaseTTL {
			s.Stats.LeaseWaits++
			return WaitLease, 0
		}
		// Leases off (stampede) or the lease aged out (takeover).
		e.fetchers++
		if e.fetchers == 2 {
			s.Stats.Stampedes++
		}
		s.Stats.StampedeFetches++
		if s.spec.Leases {
			s.Stats.LeaseTakeovers++
			e.leaseAt = now
		}
		return Miss, 0
	}
	i := s.alloc(k)
	e := &s.slab[i]
	e.state = stateFetching
	e.fetchers = 1
	e.leaseAt = now
	return Miss, 0
}

// Put lands a fill: the fragment becomes resident for one TTL and the
// LRU evicts from the cold end while over either bound.
func (s *Store) Put(now sim.Time, k Key, bytes float64) {
	i, ok := s.idx[k]
	if !ok {
		i = s.alloc(k)
	}
	e := &s.slab[i]
	if e.state == stateValid {
		// A concurrent filler landed first; refresh in place.
		s.lruRemove(i)
		s.used -= e.bytes
		s.valid--
	}
	e.state = stateValid
	e.fetchers = 0
	e.bytes = bytes
	e.expireAt = now + s.ttl
	s.lruPush(i)
	s.used += bytes
	s.valid++
	for (s.valid > s.spec.MaxEntries || s.used > s.maxBytes) && s.tail != nilIdx {
		s.evictTail()
	}
}

// AbortFetch withdraws a filler that failed (request error, crash)
// without landing data; the placeholder is dropped with the last filler.
func (s *Store) AbortFetch(k Key) {
	i, ok := s.idx[k]
	if !ok {
		return
	}
	e := &s.slab[i]
	if e.state != stateFetching {
		return
	}
	e.fetchers--
	if e.fetchers <= 0 {
		s.release(i)
	}
}

// Invalidate drops a resident fragment (write-through invalidation).
// An in-flight fill is left alone: the fill may land marginally stale
// data, which the next TTL expiry corrects — the same razor-edge
// staleness real delete-on-write memcached deployments accept.
func (s *Store) Invalidate(k Key) bool {
	i, ok := s.idx[k]
	if !ok {
		return false
	}
	e := &s.slab[i]
	if e.state != stateValid {
		return false
	}
	s.lruRemove(i)
	s.used -= e.bytes
	s.valid--
	s.release(i)
	s.Stats.Invalidations++
	return true
}

// Reset flushes all state — a cold restart after a cache node crash.
// Stats stay (monotonic counters survive the crash for telemetry).
func (s *Store) Reset() {
	s.idx = make(map[Key]int32, s.spec.MaxEntries)
	s.slab = s.slab[:0]
	s.free = nilIdx
	s.head, s.tail = nilIdx, nilIdx
	s.used = 0
	s.valid = 0
}

func (s *Store) alloc(k Key) int32 {
	var i int32
	if s.free != nilIdx {
		i = s.free
		s.free = s.slab[i].next
	} else {
		s.slab = append(s.slab, entry{})
		i = int32(len(s.slab) - 1)
	}
	s.slab[i] = entry{key: k, prev: nilIdx, next: nilIdx}
	s.idx[k] = i
	return i
}

func (s *Store) release(i int32) {
	delete(s.idx, s.slab[i].key)
	s.slab[i].next = s.free
	s.free = i
}

func (s *Store) evictTail() {
	i := s.tail
	e := &s.slab[i]
	s.lruRemove(i)
	s.used -= e.bytes
	s.valid--
	s.release(i)
	s.Stats.Evictions++
}

// lruPush inserts i at the hot end.
func (s *Store) lruPush(i int32) {
	e := &s.slab[i]
	e.prev = nilIdx
	e.next = s.head
	if s.head != nilIdx {
		s.slab[s.head].prev = i
	}
	s.head = i
	if s.tail == nilIdx {
		s.tail = i
	}
}

// lruFront moves an already-listed i to the hot end.
func (s *Store) lruFront(i int32) {
	if s.head == i {
		return
	}
	s.lruRemove(i)
	s.lruPush(i)
}

func (s *Store) lruRemove(i int32) {
	e := &s.slab[i]
	if e.prev != nilIdx {
		s.slab[e.prev].next = e.next
	} else if s.head == i {
		s.head = e.next
	}
	if e.next != nilIdx {
		s.slab[e.next].prev = e.prev
	} else if s.tail == i {
		s.tail = e.prev
	}
	e.prev, e.next = nilIdx, nilIdx
}
