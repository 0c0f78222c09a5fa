package cachetier

import (
	"encoding/json"
	"testing"

	"vwchar/internal/sim"
)

func TestSpecDefaultsAndValidate(t *testing.T) {
	if err := ptrTo(CacheSpec{}).Validate(); err != nil {
		t.Fatalf("zero cache spec (defaulted) invalid: %v", err)
	}
	if err := ptrTo(QueueSpec{}).Validate(); err != nil {
		t.Fatalf("zero queue spec (defaulted) invalid: %v", err)
	}
	bad := []CacheSpec{
		{MaxEntries: -1},
		{MaxEntries: 1 << 23},
		{MaxMB: 5000},
		{TTLSeconds: 0.01},
		{LeaseTimeoutMillis: 100000},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad cache spec %d validated: %+v", i, s)
		}
	}
	badQ := []QueueSpec{
		{MaxDepth: -2},
		{MaxDepth: 1 << 21},
		{MaxDepth: 4, BatchSize: 8},
		{DrainEveryMillis: 70000},
	}
	for i, s := range badQ {
		if err := s.Validate(); err == nil {
			t.Errorf("bad queue spec %d validated: %+v", i, s)
		}
	}
}

func ptrTo[T any](v T) *T { return &v }

func TestSpecJSONRoundTrip(t *testing.T) {
	c := CacheSpec{MaxEntries: 128, MaxMB: 8, TTLSeconds: 15, Leases: true, LeaseTimeoutMillis: 100}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var c2 CacheSpec
	if err := json.Unmarshal(b, &c2); err != nil {
		t.Fatal(err)
	}
	if c2 != c {
		t.Fatalf("cache spec round trip: %+v != %+v", c2, c)
	}
	q := QueueSpec{MaxDepth: 64, BatchSize: 8, DrainEveryMillis: 50}
	b, err = json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var q2 QueueSpec
	if err := json.Unmarshal(b, &q2); err != nil {
		t.Fatal(err)
	}
	if q2 != q {
		t.Fatalf("queue spec round trip: %+v != %+v", q2, q)
	}
}

func key(id int64) Key { return Key{Kind: 3, ID: id} }

func TestStoreHitMissTTL(t *testing.T) {
	s := NewStore(CacheSpec{MaxEntries: 8, MaxMB: 1, TTLSeconds: 10})
	now := sim.Seconds(1)
	if o, _ := s.Lookup(now, key(1)); o != Miss {
		t.Fatalf("cold lookup = %v, want miss", o)
	}
	s.Put(now, key(1), 100)
	if o, b := s.Lookup(now+sim.Second, key(1)); o != Hit || b != 100 {
		t.Fatalf("fresh lookup = %v/%v, want hit/100", o, b)
	}
	// Past TTL the entry expires in place and the toucher refetches.
	if o, _ := s.Lookup(now+sim.Seconds(11), key(1)); o != Miss {
		t.Fatal("expired lookup should miss")
	}
	if s.Stats.Expiries != 1 {
		t.Fatalf("expiries = %d, want 1", s.Stats.Expiries)
	}
	s.Put(now+sim.Seconds(11), key(1), 100)
	if o, _ := s.Lookup(now+sim.Seconds(12), key(1)); o != Hit {
		t.Fatal("refreshed entry should hit")
	}
}

func TestStoreLRUEvictionOrder(t *testing.T) {
	s := NewStore(CacheSpec{MaxEntries: 3, MaxMB: 1, TTLSeconds: 100})
	now := sim.Second
	for id := int64(1); id <= 3; id++ {
		s.Lookup(now, key(id))
		s.Put(now, key(id), 10)
	}
	// Touch 1 so 2 is the cold tail, then insert 4: 2 must go.
	s.Lookup(now, key(1))
	s.Lookup(now, key(4))
	s.Put(now, key(4), 10)
	if s.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Stats.Evictions)
	}
	if o, _ := s.Lookup(now, key(2)); o != Miss {
		t.Fatal("LRU tail (2) should have been evicted")
	}
	if o, _ := s.Lookup(now, key(1)); o != Hit {
		t.Fatal("recently touched key (1) should survive")
	}
	s.AbortFetch(key(2))
}

func TestStoreByteBoundEvicts(t *testing.T) {
	s := NewStore(CacheSpec{MaxEntries: 100, MaxMB: 0.001, TTLSeconds: 100}) // 1000 bytes
	now := sim.Second
	for id := int64(1); id <= 4; id++ {
		s.Lookup(now, key(id))
		s.Put(now, key(id), 400)
	}
	if s.UsedBytes() > 1000 {
		t.Fatalf("resident bytes %v over the 1000-byte bound", s.UsedBytes())
	}
	if s.Stats.Evictions == 0 {
		t.Fatal("byte bound never evicted")
	}
}

func TestStoreStampedeAccounting(t *testing.T) {
	s := NewStore(CacheSpec{MaxEntries: 8, MaxMB: 1, TTLSeconds: 10})
	now := sim.Second
	// Three concurrent fetchers of one cold key: one legitimate fill,
	// two redundant (one thundering-herd episode).
	for i := 0; i < 3; i++ {
		if o, _ := s.Lookup(now, key(7)); o != Miss {
			t.Fatalf("fetcher %d = %v, want miss (leases off)", i, o)
		}
	}
	if s.Stats.Stampedes != 1 || s.Stats.StampedeFetches != 2 {
		t.Fatalf("stampedes/fetches = %d/%d, want 1/2", s.Stats.Stampedes, s.Stats.StampedeFetches)
	}
	s.Put(now, key(7), 10)
	if o, _ := s.Lookup(now, key(7)); o != Hit {
		t.Fatal("filled key should hit")
	}
}

func TestStoreLeases(t *testing.T) {
	s := NewStore(CacheSpec{MaxEntries: 8, MaxMB: 1, TTLSeconds: 10, Leases: true, LeaseTimeoutMillis: 100})
	now := sim.Second
	if o, _ := s.Lookup(now, key(9)); o != Miss {
		t.Fatal("first fetcher should take the lease as a miss")
	}
	if o, _ := s.Lookup(now+sim.Millisecond, key(9)); o != WaitLease {
		t.Fatal("follower inside the lease window should wait")
	}
	if s.Stats.LeaseWaits != 1 {
		t.Fatalf("lease waits = %d, want 1", s.Stats.LeaseWaits)
	}
	// Past the lease timeout the next toucher takes the lease over.
	if o, _ := s.Lookup(now+sim.Seconds(1), key(9)); o != Miss {
		t.Fatal("aged lease should be taken over as a miss")
	}
	if s.Stats.LeaseTakeovers != 1 {
		t.Fatalf("takeovers = %d, want 1", s.Stats.LeaseTakeovers)
	}
}

func TestStoreInvalidate(t *testing.T) {
	s := NewStore(CacheSpec{MaxEntries: 8, MaxMB: 1, TTLSeconds: 10})
	now := sim.Second
	s.Lookup(now, key(1))
	s.Put(now, key(1), 10)
	if !s.Invalidate(key(1)) {
		t.Fatal("resident key should invalidate")
	}
	if s.Invalidate(key(1)) {
		t.Fatal("absent key should not invalidate")
	}
	if o, _ := s.Lookup(now, key(1)); o != Miss {
		t.Fatal("invalidated key should miss")
	}
	// In-flight fill (the miss above) is left alone by Invalidate.
	if s.Invalidate(key(1)) {
		t.Fatal("fetching placeholder should not invalidate")
	}
	s.AbortFetch(key(1))
	if s.valid != 0 {
		t.Fatalf("len = %d after abort, want 0", s.valid)
	}
}

func TestStoreResetKeepsStats(t *testing.T) {
	s := NewStore(CacheSpec{MaxEntries: 8, MaxMB: 1, TTLSeconds: 10})
	now := sim.Second
	s.Lookup(now, key(1))
	s.Put(now, key(1), 10)
	now += 11 * sim.Second
	s.Lookup(now, key(1)) // expired: counts an expiry
	s.Put(now, key(1), 10)
	stats := s.Stats
	if stats.Expiries == 0 {
		t.Fatal("the expired lookup counted no expiry")
	}
	s.Reset()
	if s.valid != 0 || s.UsedBytes() != 0 {
		t.Fatal("reset did not flush residency")
	}
	if s.Stats != stats {
		t.Fatal("reset must keep cumulative stats (telemetry differences them)")
	}
	if o, _ := s.Lookup(now, key(1)); o != Miss {
		t.Fatal("post-reset lookup should be cold")
	}
}

// FuzzCacheSpecRoundTrip: any JSON that decodes and validates must
// marshal to a fixed point (config files survive rewriting).
func FuzzCacheSpecRoundTrip(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"MaxEntries":128,"MaxMB":8,"TTLSeconds":15}`,
		`{"Leases":true,"LeaseTimeoutMillis":100}`,
		`{"MaxEntries":-1}`,
		`{"TTLSeconds":1e300}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s CacheSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			return
		}
		b1, err := json.Marshal(&s)
		if err != nil {
			t.Fatalf("marshal after validate: %v", err)
		}
		var s2 CacheSpec
		if err := json.Unmarshal(b1, &s2); err != nil {
			t.Fatalf("re-unmarshal: %v", err)
		}
		b2, err := json.Marshal(&s2)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if string(b1) != string(b2) {
			t.Fatalf("marshal not a fixed point:\n%s\n%s", b1, b2)
		}
		if w := s.WithDefaults(); w.Validate() != nil {
			t.Fatalf("defaulted form of a valid spec invalid: %+v", w)
		}
	})
}

// FuzzQueueSpecRoundTrip mirrors FuzzCacheSpecRoundTrip for the broker.
func FuzzQueueSpecRoundTrip(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"MaxDepth":64,"BatchSize":8,"DrainEveryMillis":50}`,
		`{"MaxDepth":4,"BatchSize":8}`,
		`{"DrainEveryMillis":-5}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s QueueSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			return
		}
		b1, err := json.Marshal(&s)
		if err != nil {
			t.Fatalf("marshal after validate: %v", err)
		}
		var s2 QueueSpec
		if err := json.Unmarshal(b1, &s2); err != nil {
			t.Fatalf("re-unmarshal: %v", err)
		}
		b2, err := json.Marshal(&s2)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if string(b1) != string(b2) {
			t.Fatalf("marshal not a fixed point:\n%s\n%s", b1, b2)
		}
		if w := s.WithDefaults(); w.Validate() != nil {
			t.Fatalf("defaulted form of a valid spec invalid: %+v", w)
		}
	})
}
