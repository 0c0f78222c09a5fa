// Package cachetier models a memcache-like fragment cache and a
// write-behind queue as deterministic components for the simulated
// serving stack. The Store here is pure state (LRU + TTL + single-flight
// leases, no clock of its own, no RNG); internal/tiers wraps it in a
// VM-backed server with wire transfers and CPU costs, and
// internal/experiment wires both behind experiment.Config.Cache/Queue.
package cachetier

import "fmt"

// CacheSpec configures the cache tier. The zero value is invalid; use
// DefaultCacheSpec or WithDefaults.
type CacheSpec struct {
	// MaxEntries bounds the number of resident fragments.
	MaxEntries int
	// MaxMB bounds resident fragment bytes (payload, not metadata).
	MaxMB float64
	// TTLSeconds is each fragment's time-to-live after population.
	TTLSeconds float64
	// Leases enables single-flight fill leases: on a miss, one request
	// fetches from the DB while followers wait for the fill instead of
	// stampeding the primary.
	Leases bool
	// LeaseTimeoutMillis bounds how long a follower waits on a lease
	// before falling through to the DB itself.
	LeaseTimeoutMillis float64
}

// DefaultCacheSpec returns a small web-tier cache: 4096 entries, 64 MB,
// 60 s TTL, leases off (the thundering herd is the default behavior you
// opt out of, matching memcached).
func DefaultCacheSpec() CacheSpec {
	return CacheSpec{
		MaxEntries:         4096,
		MaxMB:              64,
		TTLSeconds:         60,
		LeaseTimeoutMillis: 250,
	}
}

// WithDefaults returns a copy with zero fields replaced by defaults.
func (s CacheSpec) WithDefaults() CacheSpec {
	d := DefaultCacheSpec()
	if s.MaxEntries == 0 {
		s.MaxEntries = d.MaxEntries
	}
	if s.MaxMB == 0 {
		s.MaxMB = d.MaxMB
	}
	if s.TTLSeconds == 0 {
		s.TTLSeconds = d.TTLSeconds
	}
	if s.LeaseTimeoutMillis == 0 {
		s.LeaseTimeoutMillis = d.LeaseTimeoutMillis
	}
	return s
}

// Validate checks the spec after defaults are applied.
func (s *CacheSpec) Validate() error {
	w := s.WithDefaults()
	if w.MaxEntries < 1 || w.MaxEntries > 1<<22 {
		return fmt.Errorf("cachetier: MaxEntries %d out of range [1, %d]", w.MaxEntries, 1<<22)
	}
	if w.MaxMB < 0.001 || w.MaxMB > 4096 {
		return fmt.Errorf("cachetier: MaxMB %g out of range [0.001, 4096]", w.MaxMB)
	}
	if w.TTLSeconds < 0.1 || w.TTLSeconds > 86400 {
		return fmt.Errorf("cachetier: TTLSeconds %g out of range [0.1, 86400]", w.TTLSeconds)
	}
	if w.LeaseTimeoutMillis < 1 || w.LeaseTimeoutMillis > 60000 {
		return fmt.Errorf("cachetier: LeaseTimeoutMillis %g out of range [1, 60000]", w.LeaseTimeoutMillis)
	}
	return nil
}

// MaxBytes is the byte bound implied by MaxMB.
func (s CacheSpec) MaxBytes() float64 { return s.MaxMB * 1e6 }

// QueueSpec configures the write-behind queue tier. The zero value is
// invalid; use DefaultQueueSpec or WithDefaults.
type QueueSpec struct {
	// MaxDepth bounds buffered write interactions; beyond it, web
	// replicas fall back to synchronous DB writes.
	MaxDepth int
	// BatchSize is the maximum interactions replayed to the DB primary
	// per drain tick.
	BatchSize int
	// DrainEveryMillis is the drain tick period.
	DrainEveryMillis float64
}

// DefaultQueueSpec returns a queue sized to absorb multi-second write
// bursts: 4096 pending writes, drained 64 at a time every 200 ms.
func DefaultQueueSpec() QueueSpec {
	return QueueSpec{MaxDepth: 4096, BatchSize: 64, DrainEveryMillis: 200}
}

// WithDefaults returns a copy with zero fields replaced by defaults.
func (s QueueSpec) WithDefaults() QueueSpec {
	d := DefaultQueueSpec()
	if s.MaxDepth == 0 {
		s.MaxDepth = d.MaxDepth
	}
	if s.BatchSize == 0 {
		s.BatchSize = d.BatchSize
	}
	if s.DrainEveryMillis == 0 {
		s.DrainEveryMillis = d.DrainEveryMillis
	}
	return s
}

// Validate checks the spec after defaults are applied.
func (s *QueueSpec) Validate() error {
	w := s.WithDefaults()
	if w.MaxDepth < 1 || w.MaxDepth > 1<<20 {
		return fmt.Errorf("cachetier: MaxDepth %d out of range [1, %d]", w.MaxDepth, 1<<20)
	}
	if w.BatchSize < 1 || w.BatchSize > w.MaxDepth {
		return fmt.Errorf("cachetier: BatchSize %d out of range [1, MaxDepth=%d]", w.BatchSize, w.MaxDepth)
	}
	if w.DrainEveryMillis < 1 || w.DrainEveryMillis > 60000 {
		return fmt.Errorf("cachetier: DrainEveryMillis %g out of range [1, 60000]", w.DrainEveryMillis)
	}
	return nil
}
