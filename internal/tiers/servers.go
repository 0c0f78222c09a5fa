package tiers

import (
	"vwchar/internal/cachetier"
	"vwchar/internal/osmodel"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
)

// WebParams tunes the combined web+application server (Apache+PHP).
type WebParams struct {
	// Workers is the worker pool size; requests beyond it queue.
	Workers int
	// StageSplit is the fraction of an interaction's web CPU spent
	// before the DB calls (parse, session, controller); the rest is
	// template rendering after the data arrives.
	StageSplit float64
	// LogBytesPerRequest is access-log output.
	LogBytesPerRequest float64
	// SessionBytesPerRequest is session-state spill written per request.
	SessionBytesPerRequest float64
	// MemBase/MemChunk/MemMax/SpawnThreshold/SpawnCooldown drive the
	// worker-pool memory allocator (the paper's RAM jumps).
	MemBase        float64
	MemChunk       float64
	MemMax         float64
	SpawnThreshold int
	SpawnCooldown  sim.Time
	// SpawnDiskBytes is the disk burst accompanying a worker-batch
	// spawn (binaries, session directory churn) — the disk spikes the
	// paper pairs with the RAM jumps.
	SpawnDiskBytes float64
}

// DefaultWebParams returns the calibrated web tier for the given
// deployment ("vm" or "pm").
func DefaultWebParams(deployment string) WebParams {
	p := WebParams{
		Workers:                64,
		StageSplit:             0.38,
		LogBytesPerRequest:     210,
		SessionBytesPerRequest: 1600,
		SpawnCooldown:          70 * sim.Second,
		SpawnDiskBytes:         5.5e6,
	}
	switch deployment {
	case "pm":
		// Bare-metal Apache starts bigger (full OS, more spare servers)
		// and spawns earlier relative to its concurrency: the paper sees
		// jumps even for bidding, earlier in time than in VMs.
		p.MemBase = 390e6
		p.MemChunk = 120e6
		p.MemMax = 880e6
		p.SpawnThreshold = 2
	default:
		p.MemBase = 200e6
		p.MemChunk = 135e6
		p.MemMax = 760e6
		p.SpawnThreshold = 5
	}
	return p
}

// WebAppServer is one front-end replica. A replica reaches its DB tier
// through a DBCluster plus one precomputed PathPair per DB instance,
// so the same server works standalone (degenerate topology) or as one
// of N balanced replicas.
type WebAppServer struct {
	k  *sim.Kernel
	be Backend
	db *DBCluster
	// dbPaths[id] links this replica with the DB server of that id
	// (see NewDBCluster): To carries queries out, From carries replies
	// back.
	dbPaths []PathPair
	params  WebParams
	alloc   osmodel.ChunkAllocator

	active int
	queue  []*webRequest
	// reqFree recycles webRequest state: one request's whole lifecycle
	// (admission, two CPU stages, the query chain, the response) runs on
	// a single pooled struct threaded through closure-free callbacks.
	reqFree sim.FreeList[webRequest]
	// pendingSpill batches log/session writes until the pdflush-style
	// ticker writes them back (the guest page cache), which is what
	// shapes the web tier's spiky disk trace.
	pendingSpill float64
	// inflight counts requests between cluster dispatch and response —
	// the least-inflight balancer's signal.
	inflight int
	// Served counts completed requests; Dispatched counts requests the
	// balancer routed here; QueuePeak tracks the maximum backlog+active
	// seen.
	Served     uint64
	Dispatched uint64
	QueuePeak  int

	// down marks a crashed replica: new requests fast-fail, and epoch
	// invalidates every in-flight request so its pending stage
	// callbacks turn into error responses instead of touching the
	// reset worker accounting. Both are only written by fault
	// injection; the healthy path reads two predictable branches.
	down  bool
	epoch uint32
	// slow is the fault-injected CPU slowdown factor (> 1 while a
	// slow-node fault is active; 0 otherwise).
	slow float64

	// cache/queue turn the fixed web→DB chain into a backend graph:
	// cacheable reads consult the cache node and fall through to the DB
	// on a miss; writes publish to the write-behind queue when it has
	// room. Both nil by default — the healthy web→DB path reads two
	// predictable nil checks and is otherwise untouched.
	cache     *CacheServer
	cachePath PathPair
	wq        *QueueServer
	wqPath    PathPair
}

// webRequest is the pooled per-request state.
type webRequest struct {
	w    *WebAppServer
	res  *rubis.Result
	rt   *Route
	done sim.Callback
	darg any
	qi   int // index of the next DB query to issue
	// snap is the replica's own copy of the caller's cost breakdown,
	// taken at admission. A guard timeout detaches the caller while
	// this request is still mid-chain, and the caller's session then
	// reuses its Result buffer for the next interaction — so the
	// replica must never read through the caller's pointer after
	// admission. snap.Queries keeps its capacity across recycles.
	snap rubis.Result
	// rtGen snapshots the route's reuse generation at admission; a
	// mismatch means the session moved on (guard timeout), so this
	// request must neither stamp the route's outcome nor record
	// read-your-writes state into it.
	rtGen uint32
	// epoch snapshots the server's crash epoch at admission; a
	// mismatch at any stage means the server crashed underneath the
	// request.
	epoch uint32
	// failed marks the request as ending in an error response.
	failed bool
	// dbsrv/dbEpoch pin the DB instance the current query was issued
	// to (by identity, stable across failover promotion) and its crash
	// epoch at issue time.
	dbsrv   *DBServer
	dbEpoch uint32
	// ckey is the request's cache fragment key; cfill marks this request
	// as the filler that must Put (or abort) the fragment after its DB
	// chain; cres/qres are the caller-owned out-params the cache GET and
	// queue publish resolve into.
	ckey  cachetier.Key
	cfill bool
	cres  CacheGetResult
	qres  QueuePubResult
}

// NewWebAppServer builds one web replica on a backend, wired to its DB
// tier through one path pair per DB server, indexed by server id (see
// NewDBCluster).
func NewWebAppServer(k *sim.Kernel, be Backend, db *DBCluster, dbPaths []PathPair, params WebParams) *WebAppServer {
	w := &WebAppServer{k: k, be: be, db: db, dbPaths: dbPaths, params: params}
	w.alloc = osmodel.ChunkAllocator{
		Mem:       be.Mem(),
		Label:     "apache",
		Base:      params.MemBase,
		Chunk:     params.MemChunk,
		Max:       params.MemMax,
		Threshold: params.SpawnThreshold,
		Cooldown:  params.SpawnCooldown,
	}
	w.alloc.Init()
	be.OS().Fork(params.Workers / 8) // initial spare servers
	k.Every(5*sim.Second, 5*sim.Second, w.flushSpill)
	return w
}

// SetCacheTier wires the replica to a cache node through its own path
// pair (To carries GET/SET/DELETE out, From carries replies back).
func (w *WebAppServer) SetCacheTier(c *CacheServer, path PathPair) {
	w.cache = c
	w.cachePath = path
}

// SetQueueTier wires the replica to the write-behind queue node.
func (w *WebAppServer) SetQueueTier(q *QueueServer, path PathPair) {
	w.wq = q
	w.wqPath = path
}

// flushSpill writes the buffered log/session bytes back every 5 seconds,
// as the guest kernel's periodic writeback does.
func (w *WebAppServer) flushSpill(now sim.Time) {
	if w.pendingSpill <= 0 {
		return
	}
	w.be.DiskIO(w.pendingSpill, true, nil, nil)
	w.pendingSpill = 0
}

// Growths reports how many worker-batch spawns (RAM jumps) occurred.
func (w *WebAppServer) Growths() int { return w.alloc.Growths }

// QueueDepth reports requests resident at the server (executing plus
// queued) — the join-shortest-queue balancer's signal.
func (w *WebAppServer) QueueDepth() int { return w.active + len(w.queue) }

// HandleRequest processes one parsed interaction; done(arg) fires when
// the response has been transmitted to the client. rt is the session's
// routing state (nil disables read-your-writes stickiness). The res
// cost breakdown is snapshotted at admission, so the caller may reuse
// it as soon as HandleRequest returns.
func (w *WebAppServer) HandleRequest(res *rubis.Result, rt *Route, done sim.Callback, arg any) {
	if w.down {
		// Crashed replica: connection refused after a fast turnaround.
		req := w.reqFree.Get()
		req.w = w
		req.res = res
		req.rt = rt
		req.rtGen = rt.generation()
		req.done = done
		req.darg = arg
		req.failed = true
		w.k.AfterCall(errorRespLatency, webRespDone, req)
		return
	}
	level := w.active + len(w.queue) + 1
	if level > w.QueuePeak {
		w.QueuePeak = level
	}
	if w.alloc.Observe(w.k.Now(), level) {
		// Worker-batch spawn: fork children, touch disk.
		w.be.OS().Fork(8)
		w.be.DiskIO(w.params.SpawnDiskBytes, true, nil, nil)
		w.be.OS().NoteFaults(2200, 14)
	}
	req := w.reqFree.Get()
	req.w = w
	// Work from the replica's own snapshot of the cost breakdown: the
	// caller's buffer belongs to its session again the moment a guard
	// timeout detaches it, possibly while this request is still queued
	// or mid-query-chain.
	qbuf := req.snap.Queries[:0]
	req.snap = *res
	req.snap.Queries = append(qbuf, res.Queries...)
	req.res = &req.snap
	req.rt = rt
	req.rtGen = rt.generation()
	req.done = done
	req.darg = arg
	req.qi = 0
	req.epoch = w.epoch
	req.failed = false
	if w.active >= w.params.Workers {
		w.queue = append(w.queue, req)
		return
	}
	w.start(req)
}

func (w *WebAppServer) start(req *webRequest) {
	w.active++
	os := w.be.OS()
	os.RunQueue++
	os.NoteContext(4)
	os.NoteFaults(35, 0)
	stage1 := req.res.WebCycles * w.params.StageSplit
	if w.slow > 1 {
		stage1 *= w.slow
	}
	w.be.SubmitCPU(stage1, webStage1Done, req)
}

// webStage1Done fires after the pre-query CPU stage: begin the backend
// phase (queue publish, cache lookup, or the direct DB chain).
func webStage1Done(arg any) {
	req := arg.(*webRequest)
	if req.w.stale(req) {
		req.w.failRequest(req)
		return
	}
	req.w.beginBackend(req)
}

// beginBackend routes the request's backend work through the graph:
// writes publish to the queue when it has room, cacheable reads consult
// the cache, and everything else (or any fallback) runs the synchronous
// DB chain. With no cache/queue wired this is exactly the old stepQuery
// entry — same branches, same events.
func (w *WebAppServer) beginBackend(req *webRequest) {
	res := req.res
	if len(res.Queries) > 0 {
		if res.IsWrite && w.wq != nil && w.wq.Admit() {
			w.wqPath.To.Transfer(w.wq.PublishBytes(res), webQueuePubSent, req)
			return
		}
		if res.Cacheable && w.cache != nil && !w.cache.down {
			req.ckey = cachetier.Key{Kind: uint8(res.CacheKey.Kind), ID: res.CacheKey.ID}
			w.cachePath.To.Transfer(w.cache.params.GetRequestBytes, webCacheGetSent, req)
			return
		}
	}
	w.stepQuery(req)
}

// webCacheGetSent fires when the GET request reached the cache node.
func webCacheGetSent(arg any) {
	req := arg.(*webRequest)
	w := req.w
	if w.stale(req) {
		w.failRequest(req)
		return
	}
	w.cache.HandleGet(req.ckey, &req.cres, w.cachePath.From, webCacheGetDone, req)
}

// webCacheGetDone fires when the cache reply reached the web tier: a
// hit serves the fragment (the whole DB chain is skipped — this is the
// 0-alloc fast path); a miss makes this request the fragment's filler
// and falls through to the DB.
func webCacheGetDone(arg any) {
	req := arg.(*webRequest)
	w := req.w
	if w.stale(req) {
		w.failRequest(req)
		return
	}
	if req.cres.Outcome == cachetier.Hit {
		w.finish(req)
		return
	}
	req.cfill = true
	w.stepQuery(req)
}

// webQueuePubSent fires when the publish payload reached the queue node.
func webQueuePubSent(arg any) {
	req := arg.(*webRequest)
	w := req.w
	if w.stale(req) {
		w.failRequest(req)
		return
	}
	w.wq.HandlePublish(req.res.Queries, &req.qres, w.wqPath.From, webQueueAckDone, req)
}

// webQueueAckDone fires when the publish ack reached the web tier: on
// acceptance the write is durable at the broker and the request
// completes without touching the DB; on refusal (filled up or crashed
// under the publish) it falls back to the synchronous chain.
func webQueueAckDone(arg any) {
	req := arg.(*webRequest)
	w := req.w
	if w.stale(req) {
		w.failRequest(req)
		return
	}
	if req.qres.OK {
		w.invalidate(req)
		w.finish(req)
		return
	}
	w.stepQuery(req)
}

// finishBackend completes the DB chain: a filler ships the fragment to
// the cache, a write fires its invalidations, then rendering starts.
func (w *WebAppServer) finishBackend(req *webRequest) {
	if req.cfill {
		req.cfill = false
		if w.cache != nil && !w.cache.down {
			_, fromDB := req.res.DBTransferBytes()
			w.cache.SendFill(w.cachePath.To, req.ckey, fromDB)
		}
	}
	w.invalidate(req)
	w.finish(req)
}

// invalidate ships the write's declared invalidations to the cache
// node; fire-and-forget, like a delete-on-write memcached client.
func (w *WebAppServer) invalidate(req *webRequest) {
	if w.cache == nil || w.cache.down || req.res.NInval == 0 {
		return
	}
	for i := uint8(0); i < req.res.NInval; i++ {
		ref := req.res.Inval[i]
		w.cache.SendInval(w.cachePath.To, cachetier.Key{Kind: uint8(ref.Kind), ID: ref.ID})
	}
}

// abortFill withdraws a failed filler's placeholder so the key does not
// wedge behind a dead lease.
func (w *WebAppServer) abortFill(req *webRequest) {
	if req.cfill {
		req.cfill = false
		if w.cache != nil {
			w.cache.AbortFetch(req.ckey)
		}
	}
}

// stepQuery issues the interaction's DB calls sequentially, as the PHP
// runtime does. Each query routes through the DB cluster — writes to
// the primary, reads fanned across replicas subject to the session's
// read-your-writes window — and travels the precomputed path to the
// chosen instance.
func (w *WebAppServer) stepQuery(req *webRequest) {
	if req.qi >= len(req.res.Queries) {
		w.finishBackend(req)
		return
	}
	q := &req.res.Queries[req.qi]
	rt := req.rt
	if rt.generation() != req.rtGen {
		// The session timed out and moved on: route without stickiness
		// so this straggler neither reads nor records the live
		// interaction's read-your-writes state.
		rt = nil
	}
	srv := w.db.server(w.db.route(q.Receipt.Work.RowsWritten > 0, w.k.Now(), rt))
	if srv.down {
		// The routed instance is dead (primary crashed, no failover
		// yet): error out without leaking the worker slot.
		w.errorOut(req)
		return
	}
	req.dbsrv = srv
	req.dbEpoch = srv.epoch
	w.dbPaths[srv.id].To.Transfer(q.RequestBytes, webQuerySent, req)
}

// webQuerySent fires when the query's request bytes reached the DB tier.
func webQuerySent(arg any) {
	req := arg.(*webRequest)
	w := req.w
	if w.stale(req) {
		w.failRequest(req)
		return
	}
	if req.dbsrv.down || req.dbsrv.epoch != req.dbEpoch {
		// The instance crashed while the query was on the wire.
		w.errorOut(req)
		return
	}
	req.dbsrv.HandleQuery(req.res.Queries[req.qi], w.dbPaths[req.dbsrv.id].From, webQueryDone, req)
}

// webQueryDone fires when the DB reply reached the web tier.
func webQueryDone(arg any) {
	req := arg.(*webRequest)
	w := req.w
	if w.stale(req) {
		w.failRequest(req)
		return
	}
	if req.dbsrv.down || req.dbsrv.epoch != req.dbEpoch {
		// The reply is a crashed instance's error marker (or raced the
		// crash): the transaction is lost either way.
		w.errorOut(req)
		return
	}
	req.qi++
	w.stepQuery(req)
}

func (w *WebAppServer) finish(req *webRequest) {
	stage2 := req.res.WebCycles * (1 - w.params.StageSplit)
	if w.slow > 1 {
		stage2 *= w.slow
	}
	w.be.SubmitCPU(stage2, webStage2Done, req)
}

// webStage2Done fires after template rendering: spill bookkeeping, start
// the response transfer, and free the worker slot.
func webStage2Done(arg any) {
	req := arg.(*webRequest)
	w := req.w
	if w.stale(req) {
		w.failRequest(req)
		return
	}
	// Access log + session spill accumulate in the page cache and
	// reach the disk on the writeback tick.
	spill := w.params.SessionBytesPerRequest * (req.res.ResponseBytes / 9000)
	w.pendingSpill += w.params.LogBytesPerRequest + spill
	w.be.NetExternal(req.res.ResponseBytes, false, webRespDone, req)
	w.release()
}

// webRespDone fires when the response reached the client: recycle the
// request slot, then hand off to the caller's completion.
func webRespDone(arg any) {
	req := arg.(*webRequest)
	w := req.w
	if req.failed {
		// Stamp the outcome only while the route is still on this
		// interaction; after a guard timeout the session has moved on
		// and the stamp would misclassify its next request.
		if req.rt != nil && req.rt.generation() == req.rtGen {
			req.rt.Outcome = OutcomeFailed
		}
	} else {
		w.Served++
	}
	// Guard the decrement: tests drive HandleRequest directly without a
	// cluster dispatch having incremented the gauge.
	if w.inflight > 0 {
		w.inflight--
	}
	done, darg := req.done, req.darg
	// Park the slot by hand instead of FreeList.Put so the snapshot's
	// query buffer keeps its capacity across recycles.
	qbuf := req.snap.Queries[:0]
	*req = webRequest{}
	req.snap.Queries = qbuf
	w.reqFree.PutReset(req)
	if done != nil {
		done(darg)
	}
}

// stale reports whether the server crashed since the request was
// admitted: its worker accounting was reset, so pending stage
// callbacks must not touch it.
func (w *WebAppServer) stale(req *webRequest) bool {
	return w.down || w.epoch != req.epoch
}

// failRequest turns a request into an error response without touching
// worker accounting (used for stale requests after a crash, and for
// queued requests flushed by the crash itself).
func (w *WebAppServer) failRequest(req *webRequest) {
	w.abortFill(req)
	req.failed = true
	w.k.AfterCall(errorRespLatency, webRespDone, req)
}

// errorOut fails a live request whose DB instance is unreachable: the
// worker slot frees normally, then the error response goes out.
func (w *WebAppServer) errorOut(req *webRequest) {
	w.abortFill(req)
	w.release()
	req.failed = true
	w.k.AfterCall(errorRespLatency, webRespDone, req)
}

// crash takes the replica down: worker accounting resets, queued
// requests flush as error responses, and the epoch bump detaches every
// in-flight request (each pending stage callback turns into an error
// response, so every caller's done eventually fires).
func (w *WebAppServer) crash() {
	if w.down {
		return
	}
	w.down = true
	w.epoch++
	w.active = 0
	w.inflight = 0
	w.be.OS().RunQueue = 0
	for _, req := range w.queue {
		w.failRequest(req)
	}
	w.queue = w.queue[:0]
}

// restore brings a crashed replica back (empty queue, cold start).
func (w *WebAppServer) restore() {
	if !w.down {
		return
	}
	w.down = false
}

func (w *WebAppServer) release() {
	w.active--
	os := w.be.OS()
	if os.RunQueue > 0 {
		os.RunQueue--
	}
	if len(w.queue) > 0 {
		next := w.queue[0]
		w.queue = w.queue[1:]
		w.start(next)
	}
}

// DBParams tunes the database tier.
type DBParams struct {
	// MemBase is the resident engine base (code, connection pool,
	// dictionaries).
	MemBase float64
	// CacheCeiling bounds the warm page/buffer cache growth.
	CacheCeiling float64
	// CheckpointEvery flushes dirty pages periodically.
	CheckpointEvery sim.Time
}

// DefaultDBParams returns the calibrated DB tier for "vm" or "pm".
func DefaultDBParams(deployment string) DBParams {
	p := DBParams{
		MemBase:         96e6,
		CacheCeiling:    122e6,
		CheckpointEvery: 12 * sim.Second,
	}
	if deployment == "pm" {
		p.MemBase = 430e6
		p.CacheCeiling = 270e6
	}
	return p
}

// DBServer is the back-end tier: it replays storage engine receipts as
// simulated demand and sends projected result bytes back to the web tier.
type DBServer struct {
	be    Backend
	cache osmodel.PageCache
	app   *rubis.App

	// callFree recycles per-query call state.
	callFree sim.FreeList[dbCall]

	// Queries counts handled calls.
	Queries uint64
	// id is the server's fixed position in its DBCluster (see
	// NewDBCluster); callers index their DB paths by it.
	id int

	// down/epoch mirror the web tier's crash semantics: stale query
	// stages send an error marker back instead of finishing, so the
	// calling web replica's query chain always completes.
	down  bool
	epoch uint32
	// slow is the fault-injected CPU slowdown factor.
	slow float64
}

// dbCall is the pooled per-query state: the query cost receipt, the
// reply path back to the calling web replica, and the caller's
// completion, threaded through the CPU and disk stages.
type dbCall struct {
	d     *DBServer
	q     rubis.QueryCost
	reply Path
	done  sim.Callback
	darg  any
	epoch uint32
}

// NewDBServer builds the tier and starts its checkpoint ticker.
func NewDBServer(k *sim.Kernel, be Backend, app *rubis.App, params DBParams) *DBServer {
	d := &DBServer{be: be, app: app}
	be.Mem().Set("mysqld", params.MemBase)
	d.cache = osmodel.PageCache{Mem: be.Mem(), Label: "dbcache", Ceiling: params.CacheCeiling}
	be.OS().Fork(12)
	if params.CheckpointEvery > 0 {
		k.Every(params.CheckpointEvery, params.CheckpointEvery, d.checkpoint)
	}
	return d
}

// checkpointPageCap bounds each fuzzy checkpoint's write-back, like
// InnoDB's io-capacity setting; without it the DB tier's disk trace
// would dwarf the web tier's, inverting the paper's 5.71x disk ratio.
const checkpointPageCap = 48

func (d *DBServer) checkpoint(now sim.Time) {
	if d.app == nil {
		return
	}
	flushed, err := d.app.Engine.FuzzyCheckpoint(checkpointPageCap)
	if err != nil || flushed == 0 {
		return
	}
	d.be.DiskIO(float64(flushed)*8192, true, nil, nil)
}

// HandleQuery replays one query receipt; the reply bytes travel back
// along reply, and done(arg) fires when they reached the web replica.
func (d *DBServer) HandleQuery(q rubis.QueryCost, reply Path, done sim.Callback, arg any) {
	if d.down {
		// Crashed instance: bounce an error marker straight back.
		c := d.callFree.Get()
		c.d = d
		c.reply = reply
		c.done = done
		c.darg = arg
		d.errorReply(c)
		return
	}
	d.Queries++
	os := d.be.OS()
	os.RunQueue++
	os.NoteContext(3)
	c := d.callFree.Get()
	c.d = d
	c.q = q
	c.reply = reply
	c.done = done
	c.darg = arg
	c.epoch = d.epoch
	cycles := q.Receipt.CPUCycles
	if d.slow > 1 {
		cycles *= d.slow
	}
	d.be.SubmitCPU(cycles, dbCPUDone, c)
}

// dbCPUDone fires after the query's CPU demand executed: read from disk
// if the receipt says so, then finish.
func dbCPUDone(arg any) {
	c := arg.(*dbCall)
	d := c.d
	if d.down || d.epoch != c.epoch {
		d.errorReply(c)
		return
	}
	if c.q.Receipt.DiskReadBytes > 0 {
		d.cache.Touch(c.q.Receipt.DiskReadBytes * 8)
		d.be.DiskIO(c.q.Receipt.DiskReadBytes, false, dbReadDone, c)
		return
	}
	d.finishQuery(c)
}

// dbReadDone fires when the query's disk read completed.
func dbReadDone(arg any) {
	c := arg.(*dbCall)
	if c.d.down || c.d.epoch != c.epoch {
		c.d.errorReply(c)
		return
	}
	c.d.finishQuery(c)
}

// finishQuery performs the write-side work and sends the reply, then
// recycles the call slot (the reply path copies the completion into its
// own event, so the slot is free as soon as the reply is on its way).
func (d *DBServer) finishQuery(c *dbCall) {
	os := d.be.OS()
	if os.RunQueue > 0 {
		os.RunQueue--
	}
	// WAL/journal traffic is asynchronous group commit, but a
	// write transaction also forces a synchronous fsync chain.
	if c.q.Receipt.DiskWriteBytes > 0 {
		d.be.DiskIO(c.q.Receipt.DiskWriteBytes, true, nil, nil)
	}
	if c.q.Receipt.Work.RowsWritten > 0 {
		d.be.Fsync(2)
	}
	replyBytes, reply, done, darg := c.q.ReplyBytes, c.reply, c.done, c.darg
	d.callFree.Put(c)
	reply.Transfer(replyBytes, done, darg)
}

// errorReply sends a crashed instance's error marker back along the
// reply path (modeling the caller's connection reset) so the web
// tier's query chain always completes; the caller detects the crash
// through the instance's down/epoch state.
func (d *DBServer) errorReply(c *dbCall) {
	reply, done, darg := c.reply, c.done, c.darg
	d.callFree.Put(c)
	reply.Transfer(dbErrorReplyBytes, done, darg)
}

// crash takes the instance down: the epoch bump turns every in-flight
// query stage into an error reply, and run-queue accounting resets.
func (d *DBServer) crash() {
	if d.down {
		return
	}
	d.down = true
	d.epoch++
	d.be.OS().RunQueue = 0
}

// restore brings a crashed instance back.
func (d *DBServer) restore() {
	if !d.down {
		return
	}
	d.down = false
}
