package tiers

import (
	"testing"

	"vwchar/internal/cachetier"
	"vwchar/internal/hw"
	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/xen"
)

// cacheRig extends the single-host VM rig with an optional cache node
// and write-behind queue node, each in its own guest, wired exactly as
// experiment.Run wires them.
type cacheRig struct {
	k      *sim.Kernel
	hv     *xen.Hypervisor
	web    *WebAppServer
	db     *DBServer
	cs     *CacheServer
	qs     *QueueServer
	driver *Driver
}

func newCacheRig(t testing.TB, clients int, mix rubis.Model, cache *cachetier.CacheSpec, queue *cachetier.QueueSpec) *cacheRig {
	t.Helper()
	k := sim.NewKernel()
	src := rng.NewSource(21)
	app, err := rubis.NewApp(smallDataset(), src.Stream("data"))
	if err != nil {
		t.Fatal(err)
	}
	host := hw.NewServer(k, hw.ProLiantSpec("host"))
	hv := xen.New(k, host, xen.DefaultParams())
	webDom := hv.CreateGuest("web", 2, 2<<30, 256)
	dbDom := hv.CreateGuest("db", 2, 2<<30, 256)
	webBE := &VMBackend{HV: hv, Dom: webDom}
	dbBE := &VMBackend{HV: hv, Dom: dbDom}
	db := NewDBServer(k, dbBE, app, DefaultDBParams("vm"))
	dbc := NewDBCluster(db, nil, 0)
	paths := []PathPair{{To: VMPath(hv, webDom, dbDom), From: VMPath(hv, dbDom, webDom)}}
	web := NewWebAppServer(k, webBE, dbc, paths, DefaultWebParams("vm"))
	rig := &cacheRig{k: k, hv: hv, web: web, db: db}
	if cache != nil {
		cacheDom := hv.CreateGuest("memcache", 2, 2<<30, 256)
		cacheBE := &VMBackend{HV: hv, Dom: cacheDom}
		rig.cs = NewCacheServer(k, cacheBE, *cache, DefaultCacheParams())
		web.SetCacheTier(rig.cs, PathPair{
			To:   VMPath(hv, webDom, cacheDom),
			From: VMPath(hv, cacheDom, webDom),
		})
	}
	if queue != nil {
		queueDom := hv.CreateGuest("wqueue", 2, 2<<30, 256)
		queueBE := &VMBackend{HV: hv, Dom: queueDom}
		qPaths := []PathPair{{To: VMPath(hv, queueDom, dbDom), From: VMPath(hv, dbDom, queueDom)}}
		rig.qs = NewQueueServer(k, queueBE, dbc, qPaths, *queue, DefaultQueueParams())
		web.SetQueueTier(rig.qs, PathPair{
			To:   VMPath(hv, webDom, queueDom),
			From: VMPath(hv, queueDom, webDom),
		})
	}
	fe := NewWebCluster(k, []*WebAppServer{web}, 1, nil)
	rig.driver = NewDriver(k, app, mix, fe, rubis.DefaultCostParams(), clients, src)
	return rig
}

// TestCacheHitsSkipDB: with the cache tier in front, cacheable reads
// stop reaching the DB — the same workload issues measurably fewer DB
// queries than the cache-less rig, with zero interaction errors.
func TestCacheHitsSkipDB(t *testing.T) {
	bare := newCacheRig(t, 50, rubis.BrowsingMix(), nil, nil)
	bare.driver.Start()
	bare.k.Run(120 * sim.Second)

	spec := cachetier.DefaultCacheSpec()
	spec.TTLSeconds = 600 // no expiry churn inside the run
	cached := newCacheRig(t, 50, rubis.BrowsingMix(), &spec, nil)
	cached.driver.Start()
	cached.k.Run(120 * sim.Second)

	if cached.driver.Errors != 0 {
		t.Fatalf("%d interaction errors with cache tier", cached.driver.Errors)
	}
	if cached.driver.Completed < 100 {
		t.Fatalf("completed only %d requests", cached.driver.Completed)
	}
	s := cached.cs.Snapshot()
	if s.Gets == 0 || s.Hits == 0 {
		t.Fatalf("cache idle: gets %d hits %d", s.Gets, s.Hits)
	}
	if s.HitRatio() < 0.3 {
		t.Fatalf("hit ratio %.2f too low for a warm browsing cache", s.HitRatio())
	}
	if cached.db.Queries >= bare.db.Queries {
		t.Fatalf("cache did not offload the DB: %d queries with cache >= %d without",
			cached.db.Queries, bare.db.Queries)
	}
}

// TestCacheWriteInvalidation: a write-heavy mix sends DELETEs for the
// entities it mutates, so the cache never serves stale reads and the
// invalidation counters advance.
func TestCacheWriteInvalidation(t *testing.T) {
	spec := cachetier.DefaultCacheSpec()
	spec.TTLSeconds = 600
	rig := newCacheRig(t, 50, rubis.BiddingMix(), &spec, nil)
	rig.driver.Start()
	rig.k.Run(120 * sim.Second)
	if rig.driver.Errors != 0 {
		t.Fatalf("%d interaction errors", rig.driver.Errors)
	}
	if rig.driver.WriteFraction() <= 0 {
		t.Fatal("bidding mix issued no writes")
	}
	s := rig.cs.Snapshot()
	if s.Invals == 0 {
		t.Fatal("writes never invalidated the cache")
	}
	if s.Gets == 0 || s.Sets == 0 {
		t.Fatalf("cache idle: gets %d sets %d", s.Gets, s.Sets)
	}
}

// TestCacheStampedeAndLeases drives the node's GET path directly: an
// expired hot key hit by three simultaneous readers is one
// thundering-herd episode (two redundant fetches) without leases, and
// one fetch plus two parked waiters — resolved as hits by the fill —
// with single-flight leases on.
func TestCacheStampedeAndLeases(t *testing.T) {
	build := func(leases bool, leaseMillis float64) (*sim.Kernel, *CacheServer, Path) {
		k := sim.NewKernel()
		host := hw.NewServer(k, hw.ProLiantSpec("host"))
		hv := xen.New(k, host, xen.DefaultParams())
		webDom := hv.CreateGuest("web", 2, 2<<30, 256)
		cacheDom := hv.CreateGuest("memcache", 2, 2<<30, 256)
		be := &VMBackend{HV: hv, Dom: cacheDom}
		spec := cachetier.CacheSpec{MaxEntries: 64, MaxMB: 1, TTLSeconds: 1,
			Leases: leases, LeaseTimeoutMillis: leaseMillis}
		cs := NewCacheServer(k, be, spec, DefaultCacheParams())
		return k, cs, VMPath(hv, cacheDom, webDom)
	}
	key := cachetier.Key{Kind: 2, ID: 77}

	t.Run("no-leases", func(t *testing.T) {
		k, cs, reply := build(false, 250)
		outs := make([]CacheGetResult, 4)
		resolved := 0
		count := func(any) { resolved++ }
		k.AfterCall(0, func(any) {
			cs.HandleGet(key, &outs[0], reply, func(any) {
				resolved++
				cs.HandleSet(key, 100) // the filler lands its payload
			}, nil)
		}, nil)
		// Past TTL: three readers arrive together on the expired key.
		k.AfterCall(2*sim.Second, func(any) {
			for i := 1; i <= 3; i++ {
				cs.HandleGet(key, &outs[i], reply, count, nil)
			}
		}, nil)
		k.Run(5 * sim.Second)
		if resolved != 4 {
			t.Fatalf("resolved %d gets, want 4", resolved)
		}
		for i := 1; i <= 3; i++ {
			if outs[i].Outcome != cachetier.Miss {
				t.Fatalf("herd reader %d outcome %v, want every one to miss", i, outs[i].Outcome)
			}
		}
		st := cs.store.Stats
		if st.Stampedes != 1 || st.StampedeFetches != 2 {
			t.Fatalf("stampedes/redundant fetches = %d/%d, want 1/2", st.Stampedes, st.StampedeFetches)
		}
	})

	t.Run("leases", func(t *testing.T) {
		k, cs, reply := build(true, 250)
		outs := make([]CacheGetResult, 4)
		resolved := 0
		count := func(any) { resolved++ }
		k.AfterCall(0, func(any) {
			cs.HandleGet(key, &outs[0], reply, func(any) {
				resolved++
				cs.HandleSet(key, 100)
			}, nil)
		}, nil)
		k.AfterCall(2*sim.Second, func(any) {
			for i := 1; i <= 3; i++ {
				cs.HandleGet(key, &outs[i], reply, count, nil)
			}
			// The lease holder's refetch lands shortly after.
			k.AfterCall(20*sim.Millisecond, func(any) { cs.HandleSet(key, 100) }, nil)
		}, nil)
		k.Run(5 * sim.Second)
		if resolved != 4 {
			t.Fatalf("resolved %d gets, want 4", resolved)
		}
		if outs[1].Outcome != cachetier.Miss {
			t.Fatalf("lease holder outcome %v, want the one miss", outs[1].Outcome)
		}
		if outs[2].Outcome != cachetier.Hit || outs[3].Outcome != cachetier.Hit {
			t.Fatalf("parked waiters = %v/%v, want hits off the fill", outs[2].Outcome, outs[3].Outcome)
		}
		st := cs.store.Stats
		if st.StampedeFetches != 0 {
			t.Fatalf("%d redundant fetches with leases, want 0", st.StampedeFetches)
		}
		if st.LeaseWaits != 2 {
			t.Fatalf("lease waits = %d, want 2", st.LeaseWaits)
		}
	})

	t.Run("lease-timeout", func(t *testing.T) {
		k, cs, reply := build(true, 20)
		var holder, waiter CacheGetResult
		resolved := 0
		k.AfterCall(0, func(any) {
			// The lease holder never fills (e.g. its DB fetch is slow);
			// the parked waiter gives up after 20 ms and falls through.
			cs.HandleGet(key, &holder, reply, func(any) {
				cs.HandleGet(key, &waiter, reply, func(any) { resolved++ }, nil)
			}, nil)
		}, nil)
		k.Run(2 * sim.Second)
		if resolved != 1 {
			t.Fatalf("waiter never resolved")
		}
		if waiter.Outcome != cachetier.Miss {
			t.Fatalf("timed-out waiter outcome %v, want miss", waiter.Outcome)
		}
		if cs.LeaseTimeouts != 1 {
			t.Fatalf("lease timeouts = %d, want 1", cs.LeaseTimeouts)
		}
	})
}

// TestCacheColdRestart: a cache crash flushes residency (the restart is
// cold) but keeps cumulative stats monotonic, and the serving path
// rides through it as misses with zero interaction errors.
func TestCacheColdRestart(t *testing.T) {
	spec := cachetier.DefaultCacheSpec()
	spec.TTLSeconds = 600
	spec.Leases = true
	rig := newCacheRig(t, 50, rubis.BrowsingMix(), &spec, nil)
	rig.driver.Start()
	rig.k.Run(60 * sim.Second)
	warm := rig.cs.Snapshot()
	if warm.Hits == 0 {
		t.Fatal("cache never warmed")
	}
	rig.cs.crash()
	if !rig.cs.down || rig.cs.store.UsedBytes() != 0 {
		t.Fatal("crash must take the node down and flush the store")
	}
	rig.k.Run(65 * sim.Second)
	rig.cs.restore()
	rig.k.Run(125 * sim.Second)
	s := rig.cs.Snapshot()
	if s.ColdRestarts != 1 {
		t.Fatalf("cold restarts = %d, want 1", s.ColdRestarts)
	}
	if s.Hits <= warm.Hits {
		t.Fatal("cache never re-warmed after the cold restart")
	}
	if s.Gets < warm.Gets {
		t.Fatal("cumulative counters went backwards across the restart")
	}
	if rig.driver.Errors != 0 {
		t.Fatalf("%d interaction errors across the cache crash", rig.driver.Errors)
	}
}

// TestQueueAbsorbsAndDrains: with write-behind on, the bidding mix's
// writes publish into the broker and the drain replays them against the
// DB, at-least-once, with zero interaction errors.
func TestQueueAbsorbsAndDrains(t *testing.T) {
	qspec := cachetier.DefaultQueueSpec()
	rig := newCacheRig(t, 50, rubis.BiddingMix(), nil, &qspec)
	rig.driver.Start()
	rig.k.Run(120 * sim.Second)
	if rig.driver.Errors != 0 {
		t.Fatalf("%d interaction errors", rig.driver.Errors)
	}
	s := rig.qs.Snapshot()
	if s.Published == 0 {
		t.Fatal("no writes published to the broker")
	}
	if s.Drained == 0 || s.Batches == 0 {
		t.Fatalf("broker never drained: drained %d batches %d", s.Drained, s.Batches)
	}
	if s.Overflows != 0 {
		t.Fatalf("default-depth broker overflowed %d times under nominal load", s.Overflows)
	}
	if rig.db.Queries == 0 {
		t.Fatal("no queries reached the DB")
	}
}

// TestQueueOverflowFallsBack: a tiny broker that never drains inside
// the run fills up; further writes fall back to the synchronous DB
// path, so overflows are counted but no interaction fails.
func TestQueueOverflowFallsBack(t *testing.T) {
	qspec := cachetier.QueueSpec{MaxDepth: 4, BatchSize: 2, DrainEveryMillis: 60000}
	rig := newCacheRig(t, 50, rubis.BiddingMix(), nil, &qspec)
	rig.driver.Start()
	rig.k.Run(50 * sim.Second) // ends before the first 60 s drain tick
	s := rig.qs.Snapshot()
	if s.Overflows == 0 {
		t.Fatal("a depth-4 broker should have refused writes")
	}
	if s.Published == 0 || s.Published > 4 {
		t.Fatalf("published %d, want the 4 slots filled exactly once", s.Published)
	}
	if rig.driver.Errors != 0 {
		t.Fatalf("%d interaction errors — overflow must degrade to sync writes, not fail", rig.driver.Errors)
	}
}

// TestQueueRedeliversAfterDBCrash: a DB crash in the middle of a
// replayed query chain aborts the batch and counts a redelivery; after
// the DB is restored, the next drain replays that entry from its first
// query and works off every write buffered at the crash.
func TestQueueRedeliversAfterDBCrash(t *testing.T) {
	qspec := cachetier.QueueSpec{MaxDepth: 4096, BatchSize: 4096, DrainEveryMillis: 60000}
	rig := newCacheRig(t, 50, rubis.BiddingMix(), nil, &qspec)
	rig.driver.Start()
	rig.k.Run(60 * sim.Second)
	// Step into the first drain until a chain is part-replayed.
	for !(rig.qs.draining && rig.qs.drainQI > 0) {
		if rig.k.Now() >= 120*sim.Second || !rig.k.Step() {
			t.Fatal("first drain never reached the middle of a query chain")
		}
	}
	drained, depth := rig.qs.Stats.Drained, rig.qs.Depth()
	rig.db.crash()
	rig.k.Run(65 * sim.Second)
	if rig.qs.draining {
		t.Fatal("batch still draining against a crashed DB")
	}
	if got := rig.qs.Stats.Redeliveries; got != 1 {
		t.Fatalf("redeliveries = %d, want 1", got)
	}
	if rig.qs.Stats.Drained != drained {
		t.Fatalf("drained %d -> %d while the DB was down", drained, rig.qs.Stats.Drained)
	}
	rig.db.restore()
	rig.k.Run(170 * sim.Second) // crosses the 120 s drain tick
	s := rig.qs.Snapshot()
	if s.Drained < drained+uint64(depth) {
		t.Fatalf("drained %d, want at least %d: the backlog buffered at the crash was not worked off",
			s.Drained, drained+uint64(depth))
	}
	if s.Redeliveries != 1 {
		t.Fatalf("redeliveries = %d after restore, want 1", s.Redeliveries)
	}
	if s.Published != s.Drained+uint64(s.FinalDepth) {
		t.Fatalf("published %d != drained %d + backlog %d: a write was lost",
			s.Published, s.Drained, s.FinalDepth)
	}
}

// warmCacheHitRig builds the steady-state rig for the 0-alloc gate.
// Like the guarded-dispatch gate it excludes the logical interaction
// layer (rubisdb row decoding allocates result rows by design) and
// measures the serving machinery itself: a pre-built cacheable result
// re-dispatched in a closed loop, so after the first fill every event
// in the kernel belongs to the web -> cache -> hit -> render chain.
// The long TTL and single key mean no expiries, evictions, or fills in
// the measured window.
func warmCacheHitRig(t testing.TB) (*sim.Kernel, *CacheServer, *uint64) {
	k := sim.NewKernel()
	src := rng.NewSource(21)
	app, err := rubis.NewApp(smallDataset(), src.Stream("data"))
	if err != nil {
		t.Fatal(err)
	}
	host := hw.NewServer(k, hw.ProLiantSpec("host"))
	hv := xen.New(k, host, xen.DefaultParams())
	webDom := hv.CreateGuest("web", 2, 2<<30, 256)
	dbDom := hv.CreateGuest("db", 2, 2<<30, 256)
	cacheDom := hv.CreateGuest("memcache", 2, 2<<30, 256)
	webBE := &VMBackend{HV: hv, Dom: webDom}
	dbBE := &VMBackend{HV: hv, Dom: dbDom}
	cacheBE := &VMBackend{HV: hv, Dom: cacheDom}
	db := NewDBServer(k, dbBE, app, DefaultDBParams("vm"))
	dbc := NewDBCluster(db, nil, 0)
	paths := []PathPair{{To: VMPath(hv, webDom, dbDom), From: VMPath(hv, dbDom, webDom)}}
	web := NewWebAppServer(k, webBE, dbc, paths, DefaultWebParams("vm"))
	spec := cachetier.CacheSpec{MaxEntries: 64, MaxMB: 1, TTLSeconds: 3600}
	cs := NewCacheServer(k, cacheBE, spec, DefaultCacheParams())
	web.SetCacheTier(cs, PathPair{
		To:   VMPath(hv, webDom, cacheDom),
		From: VMPath(hv, cacheDom, webDom),
	})

	res := &rubis.Result{
		Interaction:   rubis.ViewItem,
		RequestBytes:  500,
		ResponseBytes: 8000,
		WebCycles:     2e6,
		Queries:       []rubis.QueryCost{{RequestBytes: 200, ReplyBytes: 4000}},
		Cacheable:     true,
		CacheKey:      rubis.CacheRef{Kind: rubis.ViewItem, ID: 42},
	}
	served := new(uint64)
	rt := &Route{}
	rt.Reset()
	var redispatch sim.Callback
	redispatch = func(any) {
		*served++
		web.HandleRequest(res, rt, redispatch, nil)
	}
	k.AfterCall(0, redispatch, nil)
	k.Run(30 * sim.Second)
	return k, cs, served
}

// TestCacheHitDispatchZeroAlloc pins the acceptance criterion: at
// steady state the cache-hit serving path allocates nothing per event.
func TestCacheHitDispatchZeroAlloc(t *testing.T) {
	k, cs, served := warmCacheHitRig(t)
	if cs.Hits == 0 || *served < 500 {
		t.Fatalf("guard vacuous: hits %d served %d", cs.Hits, *served)
	}
	allocs := testing.AllocsPerRun(5000, func() {
		if !k.Step() {
			t.Fatal("event queue drained mid-measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-hit dispatch allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkCacheHitDispatch is the CI-gated form (0 allocs/op).
func BenchmarkCacheHitDispatch(b *testing.B) {
	k, _, _ := warmCacheHitRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.Step() {
			b.Fatal("event queue drained")
		}
	}
}
