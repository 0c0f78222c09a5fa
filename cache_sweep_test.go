package vwchar_test

import (
	"bytes"
	"testing"

	"vwchar"
	"vwchar/internal/sim"
	"vwchar/internal/telemetry"
)

// cacheSweepSpec is a reduced grid of cache+queue runs: both mixes on
// the virtualized testbed with a leased, short-TTL cache tier (so
// expiries and re-fetches happen inside the run) and the write-behind
// broker in front of the DB primary.
func cacheSweepSpec(workers int) vwchar.SweepSpec {
	return vwchar.SweepSpec{
		Points: vwchar.SweepGrid(
			[]vwchar.Env{vwchar.Virtualized},
			[]vwchar.MixKind{vwchar.MixBrowsing, vwchar.MixBidding},
			func(c *vwchar.Config) {
				c.Clients = 60
				c.Duration = 30 * sim.Second
				c.Dataset.Users = 2000
				c.Dataset.ActiveItems = 600
				c.Dataset.OldItems = 1300
				c.Dataset.BufferPages = 500
				cache := vwchar.DefaultCacheSpec()
				cache.TTLSeconds = 8
				cache.Leases = true
				c.Cache = &cache
				queue := vwchar.DefaultQueueSpec()
				c.Queue = &queue
			}),
		Replications: 2,
		RootSeed:     42,
		Workers:      workers,
	}
}

// TestCacheSweepByteIdenticalAcrossWorkers extends the determinism
// contract to the aux tiers: cache lookups, lease parking, TTL
// expiries, invalidation traffic, and the broker's journal/drain
// cycle must produce byte-identical aggregated output at workers=1
// and workers=8 for a fixed seed.
func TestCacheSweepByteIdenticalAcrossWorkers(t *testing.T) {
	table := func(workers int) ([]byte, *vwchar.SweepResult) {
		sr, err := vwchar.Sweep(cacheSweepSpec(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sr.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), sr
	}
	seq, sr := table(1)
	par, _ := table(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("cache sweep output differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
	// Non-vacuousness: every replication actually drove the cache, and
	// the bidding points pushed writes through the broker.
	queuedWrites := false
	for i := range sr.Points {
		pr := &sr.Points[i]
		for _, rep := range pr.Reps {
			if rep.Cache == nil || rep.Cache.Gets == 0 || rep.Cache.Hits == 0 {
				t.Fatalf("%s: cache tier idle: %+v", pr.Point.Name, rep.Cache)
			}
			if rep.Queue == nil {
				t.Fatalf("%s: queue stats missing", pr.Point.Name)
			}
			if sum := rep.Telemetry.ByName(telemetry.CacheStampedes).Sum(); sum != float64(rep.Cache.Stampedes) {
				t.Fatalf("%s: sum of stampede windows = %v, run total %d", pr.Point.Name, sum, rep.Cache.Stampedes)
			}
			if rep.Queue.Published > 0 {
				queuedWrites = true
			}
		}
	}
	if !queuedWrites {
		t.Fatal("no sweep point published a single write through the broker")
	}
}
