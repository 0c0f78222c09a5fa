package tiers

import (
	"vwchar/internal/cachetier"
	"vwchar/internal/sim"
)

// CacheParams tunes the cache node's service costs. The node is cheap
// by design — a memcached GET is ~10µs of CPU plus the wire — which is
// exactly why the hit path beats the DB chain.
type CacheParams struct {
	// LookupCycles is the per-operation CPU (hash, LRU splice, protocol).
	LookupCycles float64
	// PerByteCycles is the additional CPU per payload byte served.
	PerByteCycles float64
	// GetRequestBytes is the GET request wire size (key + protocol).
	GetRequestBytes float64
	// MissReplyBytes is the miss/END marker reply wire size.
	MissReplyBytes float64
	// SetOverheadBytes is the SET protocol overhead beyond the payload.
	SetOverheadBytes float64
	// InvalBytes is a DELETE request's wire size.
	InvalBytes float64
	// MemBase is the daemon's resident base (slab metadata, hash table).
	MemBase float64
}

// DefaultCacheParams returns the calibrated memcached-like node.
func DefaultCacheParams() CacheParams {
	return CacheParams{
		LookupCycles:     24e3,
		PerByteCycles:    2.2,
		GetRequestBytes:  46,
		MissReplyBytes:   24,
		SetOverheadBytes: 40,
		InvalBytes:       38,
		MemBase:          64e6,
	}
}

// CacheGetResult is the caller-owned out-param a GET resolves into: the
// server writes the outcome, then replies along the wire, so the pooled
// web request needs no per-GET allocation.
type CacheGetResult struct {
	Outcome cachetier.Outcome
}

// CacheServer is the VM-backed cache node: a deterministic
// cachetier.Store wrapped in wire transfers, CPU costs, lease-wait
// parking, and web-tier crash semantics (a crash is a cold restart —
// the store flushes and every parked waiter resolves as a miss).
type CacheServer struct {
	k      *sim.Kernel
	be     Backend
	store  *cachetier.Store
	params CacheParams

	leaseTimeout sim.Time

	opFree   sim.FreeList[cacheOp]
	fillFree sim.FreeList[cacheFill]
	// waiters holds lease-parked GETs in arrival order; per-key wakes
	// and crash flushes both walk it front to back, so resolution order
	// is deterministic (map iteration never decides event order).
	waiters  []*cacheWaiter
	waitFree sim.FreeList[cacheWaiter]

	down  bool
	epoch uint32

	// Gets/Sets/Invals count operations; Hits/Misses count web-visible
	// GET outcomes (a lease wait resolves into one or the other).
	Gets, Sets, Invals uint64
	Hits, Misses       uint64
	// LeaseTimeouts counts waiters that gave up and fell through to the
	// DB; ColdRestarts counts crash-induced store flushes.
	LeaseTimeouts uint64
	ColdRestarts  uint64
	// KindHits/KindMisses attribute web-visible outcomes by the cached
	// interaction's dense kind index.
	KindHits, KindMisses [256]uint64
}

// cacheOp is the pooled per-operation state for a resolving GET.
type cacheOp struct {
	c     *CacheServer
	key   cachetier.Key
	bytes float64
	out   *CacheGetResult
	reply Path
	done  sim.Callback
	darg  any
	epoch uint32
	hit   bool
}

// cacheWaiter parks a GET behind a fill lease until the fill lands, the
// lease times out, or the node crashes.
type cacheWaiter struct {
	c     *CacheServer
	key   cachetier.Key
	out   *CacheGetResult
	reply Path
	done  sim.Callback
	darg  any
	timer sim.Event
}

// cacheFill is the pooled carrier for fire-and-forget SET/DELETE
// traffic from a web replica (the replica's request completes
// independently, so it cannot lend its own state).
type cacheFill struct {
	c     *CacheServer
	key   cachetier.Key
	bytes float64
	inval bool
}

// NewCacheServer builds the node on a backend.
func NewCacheServer(k *sim.Kernel, be Backend, spec cachetier.CacheSpec, params CacheParams) *CacheServer {
	spec = spec.WithDefaults()
	c := &CacheServer{
		k:            k,
		be:           be,
		store:        cachetier.NewStore(spec),
		params:       params,
		leaseTimeout: sim.Time(spec.LeaseTimeoutMillis * float64(sim.Millisecond)),
	}
	be.Mem().Set("memcached", params.MemBase)
	be.OS().Fork(4)
	return c
}

// HandleGet resolves one GET: the outcome lands in out, the reply bytes
// travel back along reply, and done(arg) fires when they arrive. A
// lease-parked GET resolves later — as a hit when the fill lands, or as
// a miss on lease timeout or node crash — but done always fires exactly
// once.
func (c *CacheServer) HandleGet(key cachetier.Key, out *CacheGetResult, reply Path, done sim.Callback, arg any) {
	c.Gets++
	if c.down {
		// Connection refused: the web replica falls through to the DB.
		out.Outcome = cachetier.Miss
		c.Misses++
		c.KindMisses[key.Kind]++
		reply.Transfer(c.params.MissReplyBytes, done, arg)
		return
	}
	res, bytes := c.store.Lookup(c.k.Now(), key)
	if res == cachetier.WaitLease {
		w := c.waitFree.Get()
		w.c = c
		w.key = key
		w.out = out
		w.reply = reply
		w.done = done
		w.darg = arg
		w.timer = c.k.AfterCall(c.leaseTimeout, cacheWaitTimeout, w)
		c.waiters = append(c.waiters, w)
		return
	}
	c.resolve(key, res == cachetier.Hit, bytes, out, reply, done, arg)
}

// resolve runs the op's CPU stage and sends the reply.
func (c *CacheServer) resolve(key cachetier.Key, hit bool, bytes float64, out *CacheGetResult, reply Path, done sim.Callback, arg any) {
	op := c.opFree.Get()
	op.c = c
	op.key = key
	op.bytes = bytes
	op.out = out
	op.reply = reply
	op.done = done
	op.darg = arg
	op.epoch = c.epoch
	op.hit = hit
	os := c.be.OS()
	os.RunQueue++
	os.NoteContext(2)
	cycles := c.params.LookupCycles
	if hit {
		cycles += bytes * c.params.PerByteCycles
	}
	c.be.SubmitCPU(cycles, cacheOpDone, op)
}

// cacheOpDone fires after the op's CPU stage: stamp the outcome and put
// the reply on the wire.
func cacheOpDone(arg any) {
	op := arg.(*cacheOp)
	c := op.c
	if !c.down && c.epoch == op.epoch {
		os := c.be.OS()
		if os.RunQueue > 0 {
			os.RunQueue--
		}
	}
	hit := op.hit && !c.down && c.epoch == op.epoch
	out, reply, done, darg := op.out, op.reply, op.done, op.darg
	key, bytes := op.key, op.bytes
	c.opFree.Put(op)
	if hit {
		out.Outcome = cachetier.Hit
		c.Hits++
		c.KindHits[key.Kind]++
		reply.Transfer(bytes+c.params.MissReplyBytes, done, darg)
		return
	}
	out.Outcome = cachetier.Miss
	c.Misses++
	c.KindMisses[key.Kind]++
	reply.Transfer(c.params.MissReplyBytes, done, darg)
}

// cacheWaitTimeout fires when a parked GET's lease aged out: re-decide
// against the store — usually becoming the new filler (lease takeover),
// occasionally finding the fill just landed, or re-parking if another
// timed-out waiter took the lease first this same instant.
func cacheWaitTimeout(arg any) {
	w := arg.(*cacheWaiter)
	c := w.c
	c.unpark(w)
	c.LeaseTimeouts++
	res, bytes := c.store.Lookup(c.k.Now(), w.key)
	if res == cachetier.WaitLease {
		w2 := c.waitFree.Get()
		*w2 = *w
		w2.timer = c.k.AfterCall(c.leaseTimeout, cacheWaitTimeout, w2)
		c.waiters = append(c.waiters, w2)
		c.waitFree.PutReset(w)
		return
	}
	key, out, reply, done, darg := w.key, w.out, w.reply, w.done, w.darg
	c.waitFree.PutReset(w)
	c.resolve(key, res == cachetier.Hit, bytes, out, reply, done, darg)
}

// unpark removes w from the waiter list (its timer is already spent or
// about to be canceled by the caller).
func (c *CacheServer) unpark(w *cacheWaiter) {
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// HandleSet lands a fill: populate the store, account memory, and wake
// every waiter parked on the key as a hit.
func (c *CacheServer) HandleSet(key cachetier.Key, bytes float64) {
	if c.down {
		return
	}
	c.Sets++
	c.store.Put(c.k.Now(), key, bytes)
	c.be.Mem().Set("memcached", c.params.MemBase+c.store.UsedBytes())
	c.be.SubmitCPU(c.params.LookupCycles+bytes*c.params.PerByteCycles, nil, nil)
	c.wake(key, bytes)
}

// wake resolves every waiter parked on key as a hit, in arrival order.
func (c *CacheServer) wake(key cachetier.Key, bytes float64) {
	for i := 0; i < len(c.waiters); {
		w := c.waiters[i]
		if w.key != key {
			i++
			continue
		}
		c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
		w.timer.Cancel()
		out, reply, done, darg := w.out, w.reply, w.done, w.darg
		c.waitFree.PutReset(w)
		c.resolve(key, true, bytes, out, reply, done, darg)
	}
}

// HandleInval drops a fragment on a write's invalidation message.
func (c *CacheServer) HandleInval(key cachetier.Key) {
	if c.down {
		return
	}
	c.Invals++
	if c.store.Invalidate(key) {
		c.be.Mem().Set("memcached", c.params.MemBase+c.store.UsedBytes())
	}
	c.be.SubmitCPU(c.params.LookupCycles, nil, nil)
}

// AbortFetch withdraws a failed filler's placeholder (the web replica's
// request errored mid-chain; its connection to the cache just drops).
func (c *CacheServer) AbortFetch(key cachetier.Key) {
	if c.down {
		return
	}
	c.store.AbortFetch(key)
}

// SendFill ships a fill from a web replica along its path to the node;
// fire-and-forget (the replica's request completes independently).
func (c *CacheServer) SendFill(path Path, key cachetier.Key, bytes float64) {
	f := c.fillFree.Get()
	f.c = c
	f.key = key
	f.bytes = bytes
	f.inval = false
	path.Transfer(c.params.SetOverheadBytes+bytes, cacheFillArrived, f)
}

// SendInval ships a DELETE from a web replica; fire-and-forget.
func (c *CacheServer) SendInval(path Path, key cachetier.Key) {
	f := c.fillFree.Get()
	f.c = c
	f.key = key
	f.inval = true
	path.Transfer(c.params.InvalBytes, cacheFillArrived, f)
}

// cacheFillArrived fires when SET/DELETE bytes reach the node.
func cacheFillArrived(arg any) {
	f := arg.(*cacheFill)
	c := f.c
	key, bytes, inval := f.key, f.bytes, f.inval
	c.fillFree.PutReset(f)
	if inval {
		c.HandleInval(key)
		return
	}
	c.HandleSet(key, bytes)
}

// crash takes the node down: a cache crash is a cold restart — the
// store flushes, and every parked waiter resolves as an immediate miss
// (connection reset) so its web request falls through to the DB.
func (c *CacheServer) crash() {
	if c.down {
		return
	}
	c.down = true
	c.epoch++
	c.be.OS().RunQueue = 0
	for _, w := range c.waiters {
		w.timer.Cancel()
		w.out.Outcome = cachetier.Miss
		c.Misses++
		c.KindMisses[w.key.Kind]++
		reply, done, darg := w.reply, w.done, w.darg
		c.waitFree.PutReset(w)
		reply.Transfer(c.params.MissReplyBytes, done, darg)
	}
	c.waiters = c.waiters[:0]
	c.store.Reset()
	c.be.Mem().Set("memcached", c.params.MemBase)
}

// restore brings the node back cold.
func (c *CacheServer) restore() {
	if !c.down {
		return
	}
	c.down = false
	c.ColdRestarts++
}

// CacheStats is the node's cumulative accounting for results.
type CacheStats struct {
	Gets, Hits, Misses uint64
	Sets, Invals       uint64
	Expiries           uint64
	Evictions          uint64
	Invalidations      uint64
	Stampedes          uint64
	StampedeFetches    uint64
	LeaseWaits         uint64
	LeaseTakeovers     uint64
	LeaseTimeouts      uint64
	ColdRestarts       uint64
}

// Snapshot assembles the node + store accounting.
func (c *CacheServer) Snapshot() CacheStats {
	s := c.store.Stats
	return CacheStats{
		Gets: c.Gets, Hits: c.Hits, Misses: c.Misses,
		Sets: c.Sets, Invals: c.Invals,
		Expiries:  s.Expiries,
		Evictions: s.Evictions, Invalidations: s.Invalidations,
		Stampedes: s.Stampedes, StampedeFetches: s.StampedeFetches,
		LeaseWaits: s.LeaseWaits, LeaseTakeovers: s.LeaseTakeovers,
		LeaseTimeouts: c.LeaseTimeouts, ColdRestarts: c.ColdRestarts,
	}
}

// HitRatio is web-visible hits over resolved GETs.
func (s CacheStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// KindCounts reports web-visible outcomes for one dense kind index.
func (c *CacheServer) KindCounts(kind uint8) (hits, misses uint64) {
	return c.KindHits[kind], c.KindMisses[kind]
}
