package rubis

import (
	"fmt"
	"sync"

	"vwchar/internal/rng"
	"vwchar/internal/rubisdb"
)

// Snapshot is a populated RUBiS dataset sealed into an immutable golden
// engine snapshot (rubisdb.Golden). Population runs once; every
// replication then attaches a copy-on-write view in microseconds instead
// of rebuilding ~60k rows. A snapshot is safe for concurrent Attach from
// many workers; each view is private until Released back into the
// snapshot's reuse pool. A snapshot its caller owns (one from
// NewSnapshot, never a SharedSnapshot) can be closed once its last view
// is released, which recycles its pages for the next population.
type Snapshot struct {
	// Config is the dataset's shape; views inherit it.
	Config DatasetConfig

	golden     *rubisdb.Golden
	catWeights []float64
	regWeights []float64

	next nextIDs

	mu   sync.Mutex
	free []*App
	// attached counts views handed out and not yet released.
	attached int
	closed   bool
}

// NewSnapshot populates the dataset from the derived seed (the stream is
// rng.NewStream(seed), byte-identical to the named substream the fresh
// path would use) and seals it.
func NewSnapshot(cfg DatasetConfig, seed uint64) (*Snapshot, error) {
	a, err := NewApp(cfg, rng.NewStream(seed))
	if err != nil {
		return nil, err
	}
	golden, err := a.Engine.Seal()
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Config:     cfg,
		golden:     golden,
		catWeights: a.catWeights,
		regWeights: a.regWeights,
		next:       a.next,
	}, nil
}

// Attach returns an App whose engine is a copy-on-write view of the
// golden snapshot, byte-identical in behaviour to a freshly populated
// App. Released apps are recycled, so the steady-state attach path
// allocates nothing.
func (s *Snapshot) Attach() *App {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic("rubis: Attach on a closed snapshot")
	}
	s.attached++
	var a *App
	if n := len(s.free); n > 0 {
		a = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	}
	s.mu.Unlock()
	if a != nil {
		s.golden.Rearm(a.Engine)
	} else {
		a = new(App)
		if err := a.bind(s.golden.NewView()); err != nil {
			panic(err) // the golden was sealed from createSchema's tables
		}
	}
	a.Config = s.Config
	a.catWeights = s.catWeights
	a.regWeights = s.regWeights
	a.next = s.next
	a.snap = s
	return a
}

// Release returns a view to its snapshot's reuse pool. The caller must
// be done with the App and everything reachable from it; the next Attach
// rewinds the engine in place. Release on a freshly populated (non-view)
// App, or a second Release, is a no-op.
func (a *App) Release() {
	s := a.snap
	if s == nil {
		return
	}
	a.snap = nil
	s.mu.Lock()
	s.attached--
	s.free = append(s.free, a)
	s.mu.Unlock()
}

// Close ends a snapshot its caller owns: the golden's pages and those of
// every released view go back to rubisdb's pools for the next
// population (rubisdb.Golden.Close). Every attached App must have been
// released; Close panics otherwise, since a live view would read
// recycled pages. Attach panics afterwards. Never close a snapshot that
// SharedSnapshot returned: other callers share it.
func (s *Snapshot) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attached != 0 {
		panic(fmt.Sprintf("rubis: Close with %d views still attached", s.attached))
	}
	s.closed = true
	s.free = nil
	s.golden.Close()
}

// snapshotKey identifies a golden dataset: its full scale config plus
// the population seed (which already encodes env and replication
// derivation via the experiment's substream names).
type snapshotKey struct {
	cfg  DatasetConfig
	seed uint64
}

type snapshotEntry struct {
	ready   chan struct{}
	snap    *Snapshot
	err     error
	lastUse uint64
}

// snapshotCacheCap bounds retained goldens. A golden holds the full
// dataset (~17 MB of pages at DefaultDataset). Sweeps that share one
// dataset need exactly one; per-replication datasets never enter the
// cache (each run owns and closes its own, see experiment.Run), so the
// cap only guards callers that pin many distinct dataset seeds.
const snapshotCacheCap = 4

var snapshotCache = struct {
	sync.Mutex
	entries map[snapshotKey]*snapshotEntry
	tick    uint64
}{entries: make(map[snapshotKey]*snapshotEntry)}

// SharedSnapshot returns the process-wide golden snapshot for
// (cfg, seed), populating it exactly once even under concurrent callers
// (single-flight: losers block until the builder finishes). Least
// recently used snapshots are evicted beyond a small cap; evicted
// snapshots stay valid for views still attached to them.
func SharedSnapshot(cfg DatasetConfig, seed uint64) (*Snapshot, error) {
	key := snapshotKey{cfg: cfg, seed: seed}
	snapshotCache.Lock()
	e, ok := snapshotCache.entries[key]
	if ok {
		snapshotCache.tick++
		e.lastUse = snapshotCache.tick
		snapshotCache.Unlock()
		<-e.ready
		return e.snap, e.err
	}
	e = &snapshotEntry{ready: make(chan struct{})}
	snapshotCache.tick++
	e.lastUse = snapshotCache.tick
	snapshotCache.entries[key] = e
	evictSnapshotsLocked()
	snapshotCache.Unlock()

	e.snap, e.err = NewSnapshot(cfg, seed)
	if e.err != nil {
		// Drop the failed entry so a later caller can retry.
		snapshotCache.Lock()
		delete(snapshotCache.entries, key)
		snapshotCache.Unlock()
	}
	close(e.ready)
	return e.snap, e.err
}

// evictSnapshotsLocked drops least-recently-used ready entries until the
// cache fits the cap; in-flight builds are never evicted.
func evictSnapshotsLocked() {
	for len(snapshotCache.entries) > snapshotCacheCap {
		var victim snapshotKey
		var ve *snapshotEntry
		for k, e := range snapshotCache.entries {
			select {
			case <-e.ready:
			default:
				continue
			}
			if ve == nil || e.lastUse < ve.lastUse {
				victim, ve = k, e
			}
		}
		if ve == nil {
			return
		}
		delete(snapshotCache.entries, victim)
	}
}
