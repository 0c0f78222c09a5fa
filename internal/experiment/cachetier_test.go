package experiment

import (
	"strings"
	"testing"

	"vwchar/internal/cachetier"
	"vwchar/internal/rubis"
	"vwchar/internal/sysstat"
	"vwchar/internal/telemetry"
)

func TestCacheQueueConfigValidation(t *testing.T) {
	base := func() Config { return shortConfig(Virtualized, MixBidding) }

	cfg := base()
	cfg.Cache = ptrSpec(cachetier.DefaultCacheSpec())
	cfg.Queue = ptrSpec(cachetier.DefaultQueueSpec())
	if err := cfg.Validate(); err != nil {
		t.Fatalf("cache+queue on virtualized rejected: %v", err)
	}

	cfg = shortConfig(Physical, MixBidding)
	cfg.Cache = ptrSpec(cachetier.DefaultCacheSpec())
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "virtualized") {
		t.Fatalf("cache on physical: err = %v, want virtualized-only rejection", err)
	}
	cfg = shortConfig(Physical, MixBidding)
	cfg.Queue = ptrSpec(cachetier.DefaultQueueSpec())
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "virtualized") {
		t.Fatalf("queue on physical: err = %v, want virtualized-only rejection", err)
	}

	cfg = base()
	cfg.Pairs = 2
	cfg.Cache = ptrSpec(cachetier.DefaultCacheSpec())
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "pairs") {
		t.Fatalf("cache with pairs: err = %v, want consolidation rejection", err)
	}

	cfg = base()
	bad := cachetier.DefaultCacheSpec()
	bad.MaxEntries = -1
	cfg.Cache = &bad
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid cache spec passed Validate")
	}
	cfg = base()
	badQ := cachetier.DefaultQueueSpec()
	badQ.MaxDepth = 4
	badQ.BatchSize = 64
	cfg.Queue = &badQ
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid queue spec passed Validate")
	}
}

func ptrSpec[T any](v T) *T { return &v }

// TestCacheQueueRunEndToEnd is the tier smoke test: a virtualized
// bidding run with both aux tiers serves traffic through the cache,
// publishes writes through the broker, samples both tiers' resources,
// and attributes latency per interaction kind.
func TestCacheQueueRunEndToEnd(t *testing.T) {
	cfg := shortConfig(Virtualized, MixBidding)
	cache := cachetier.DefaultCacheSpec()
	cache.TTLSeconds = 30
	cache.Leases = true
	cfg.Cache = &cache
	cfg.Queue = ptrSpec(cachetier.DefaultQueueSpec())
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 || r.Errors != 0 {
		t.Fatalf("completed=%d errors=%d", r.Completed, r.Errors)
	}
	if r.Cache == nil || r.Queue == nil {
		t.Fatal("aux tier stats missing from the result")
	}
	if r.Cache.Gets == 0 || r.Cache.Hits == 0 {
		t.Fatalf("cache idle: %+v", r.Cache)
	}
	if hr := r.Cache.HitRatio(); hr <= 0 || hr > 1 {
		t.Fatalf("hit ratio %v out of range", hr)
	}
	if r.Queue.Published == 0 || r.Queue.Drained == 0 {
		t.Fatalf("broker idle: %+v", r.Queue)
	}
	// Both aux tiers are collected like any other tier: 90 s / 2 s = 45.
	for _, tier := range []string{TierCache, TierQueue} {
		if got := r.Resource(tier, sysstat.CPU).Len(); got != 45 {
			t.Fatalf("%s cpu samples = %d, want 45", tier, got)
		}
		if r.Resource(tier, sysstat.RAM).Mean() <= 0 {
			t.Fatalf("%s memory gauge empty", tier)
		}
		if r.Resource(tier, sysstat.Net).Sum() <= 0 {
			t.Fatalf("%s network idle", tier)
		}
	}
	// Window series materialized and aligned with the collector.
	tel := r.Telemetry
	hits, depth := tel.ByName(telemetry.CacheHitRatio), tel.ByName(telemetry.QueueDepth)
	if hits == nil || tel.ByName(telemetry.CacheStampedes) == nil || depth == nil || tel.ByName(telemetry.QueueLag) == nil {
		t.Fatal("cache/queue window series missing")
	}
	if hits.Len() != 45 || depth.Len() != 45 {
		t.Fatalf("series windows = %d/%d, want 45", hits.Len(), depth.Len())
	}
	if hits.Max() <= 0 {
		t.Fatal("hit-ratio series never rose above zero")
	}
	// Per-interaction attribution: every completed request lands in
	// exactly one kind bucket, and cacheable kinds saw cache traffic.
	if len(r.PerInteraction) != rubis.NumInteractions {
		t.Fatalf("per-interaction rows = %d, want %d", len(r.PerInteraction), rubis.NumInteractions)
	}
	var total, looked uint64
	for _, il := range r.PerInteraction {
		total += il.Count
		looked += il.CacheHits + il.CacheMisses
		if il.Count > 0 && il.MeanMs <= 0 {
			t.Fatalf("kind %s has %d observations but zero mean", il.Kind, il.Count)
		}
	}
	if total != r.Completed {
		t.Fatalf("per-interaction counts sum to %d, completed %d", total, r.Completed)
	}
	if looked == 0 {
		t.Fatal("no cache lookups attributed to any interaction kind")
	}
}
