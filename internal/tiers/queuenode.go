package tiers

import (
	"vwchar/internal/cachetier"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
)

// QueueParams tunes the write-behind queue node's service costs.
type QueueParams struct {
	// PublishCycles is the CPU to journal and ack one publish.
	PublishCycles float64
	// DrainCycles is the CPU overhead per query replayed to the DB.
	DrainCycles float64
	// AckBytes is the publish ack wire size.
	AckBytes float64
	// PublishOverheadBytes is the publish envelope beyond the payload.
	PublishOverheadBytes float64
	// JournalFactor scales payload bytes into journal disk writes.
	JournalFactor float64
	// MemBase is the broker's resident base; MemPerEntry is the buffered
	// per-write overhead driving the RAM gauge under backlog.
	MemBase     float64
	MemPerEntry float64
}

// DefaultQueueParams returns the calibrated broker node.
func DefaultQueueParams() QueueParams {
	return QueueParams{
		PublishCycles:        30e3,
		DrainCycles:          12e3,
		AckBytes:             24,
		PublishOverheadBytes: 64,
		JournalFactor:        1.1,
		MemBase:              48e6,
		MemPerEntry:          640,
	}
}

// QueuePubResult is the caller-owned out-param a publish resolves into.
// OK=false (queue full) means the web replica must fall back to the
// synchronous DB chain.
type QueuePubResult struct {
	OK bool
}

// QueueStats is the queue node's cumulative accounting.
type QueueStats struct {
	// Published counts accepted writes; Overflows counts writes turned
	// away (full) that fell back to the synchronous chain.
	Published uint64
	Overflows uint64
	// Drained counts writes fully replayed to the DB primary; Batches
	// counts drain rounds; Redeliveries counts writes replayed more than
	// once after a DB crash interrupted their batch (at-least-once).
	Drained      uint64
	Batches      uint64
	Redeliveries uint64
	// PeakDepth is the maximum buffered backlog; FinalDepth is the
	// backlog at snapshot time; MaxLagMs is the worst enqueue-to-drain
	// latency observed.
	PeakDepth  int
	FinalDepth int
	MaxLagMs   float64
}

// queueEntry is one buffered write interaction: the DB query chain to
// replay and when it was accepted. The queries slice keeps its capacity
// across ring laps.
type queueEntry struct {
	queries []rubis.QueryCost
	at      sim.Time
}

// queuePub is the pooled per-publish state (journal + CPU + ack).
type queuePub struct {
	q     *QueueServer
	out   *QueuePubResult
	reply Path
	done  sim.Callback
	darg  any
}

// queueDrain is the pooled per-batch drain state; the DB epoch snapshot
// detaches a batch whose DB target crashed mid-replay.
type queueDrain struct {
	q       *QueueServer
	srv     *DBServer
	dbEpoch uint32
}

// QueueServer is the VM-backed write-behind broker: web replicas
// publish write interactions here and complete on the ack; a periodic
// drain replays buffered query chains to the current DB primary in
// batches. A batch whose DB target crashes stops, and its current
// entry redelivers on a later tick — at-least-once semantics.
type QueueServer struct {
	k   *sim.Kernel
	be  Backend
	dbc *DBCluster
	// dbPaths[id] links the broker with the DB server of that id, so
	// drains reach whichever server is primary now.
	dbPaths []PathPair
	spec    cachetier.QueueSpec
	params  QueueParams

	ring    []queueEntry
	head, n int

	pubFree   sim.FreeList[queuePub]
	drainFree sim.FreeList[queueDrain]
	draining  bool
	drainQI   int
	batchLeft int

	// Stats is the cumulative accounting (FinalDepth filled by Snapshot).
	Stats QueueStats
}

// NewQueueServer builds the broker and starts its drain ticker.
func NewQueueServer(k *sim.Kernel, be Backend, dbc *DBCluster, dbPaths []PathPair, spec cachetier.QueueSpec, params QueueParams) *QueueServer {
	spec = spec.WithDefaults()
	q := &QueueServer{
		k: k, be: be, dbc: dbc, dbPaths: dbPaths,
		spec: spec, params: params,
		ring: make([]queueEntry, spec.MaxDepth),
	}
	be.Mem().Set("wqueue", params.MemBase)
	be.OS().Fork(4)
	period := sim.Time(spec.DrainEveryMillis * float64(sim.Millisecond))
	k.Every(period, period, q.drainTick)
	return q
}

// Depth is the buffered backlog (telemetry gauge).
func (q *QueueServer) Depth() int { return q.n }

// LagMs is the age of the oldest buffered write (telemetry gauge).
func (q *QueueServer) LagMs(now sim.Time) float64 {
	if q.n == 0 {
		return 0
	}
	return float64(now-q.ring[q.head].at) / float64(sim.Millisecond)
}

// Admit is the web replica's fast local check before putting a publish
// on the wire; a refusal counts as an overflow fallback to the
// synchronous chain.
func (q *QueueServer) Admit() bool {
	if q.n >= len(q.ring) {
		q.Stats.Overflows++
		return false
	}
	return true
}

// PublishBytes is the wire size of one interaction's publish.
func (q *QueueServer) PublishBytes(res *rubis.Result) float64 {
	total := q.params.PublishOverheadBytes
	for i := range res.Queries {
		total += res.Queries[i].RequestBytes
	}
	return total
}

// HandlePublish accepts one write interaction's query chain: journal
// it, buffer it, and ack. The out-param reports acceptance; a refusal
// (filled up while the publish was on the wire) acks OK=false and the
// caller falls back to the synchronous chain.
func (q *QueueServer) HandlePublish(queries []rubis.QueryCost, out *QueuePubResult, reply Path, done sim.Callback, arg any) {
	if q.n >= len(q.ring) {
		q.Stats.Overflows++
		out.OK = false
		reply.Transfer(q.params.AckBytes, done, arg)
		return
	}
	e := &q.ring[(q.head+q.n)%len(q.ring)]
	e.queries = append(e.queries[:0], queries...)
	e.at = q.k.Now()
	q.n++
	q.Stats.Published++
	if q.n > q.Stats.PeakDepth {
		q.Stats.PeakDepth = q.n
	}
	var payload float64
	for i := range queries {
		payload += queries[i].RequestBytes
	}
	q.be.DiskIO(payload*q.params.JournalFactor, true, nil, nil)
	q.be.Fsync(1)
	q.be.Mem().Set("wqueue", q.params.MemBase+float64(q.n)*q.params.MemPerEntry)
	p := q.pubFree.Get()
	p.q = q
	p.out = out
	p.reply = reply
	p.done = done
	p.darg = arg
	os := q.be.OS()
	os.RunQueue++
	os.NoteContext(2)
	q.be.SubmitCPU(q.params.PublishCycles, queuePubDone, p)
}

// queuePubDone fires after the publish CPU stage: ack the web replica.
func queuePubDone(arg any) {
	p := arg.(*queuePub)
	q := p.q
	os := q.be.OS()
	if os.RunQueue > 0 {
		os.RunQueue--
	}
	out, reply, done, darg := p.out, p.reply, p.done, p.darg
	q.pubFree.Put(p)
	out.OK = true
	reply.Transfer(q.params.AckBytes, done, darg)
}

// drainTick starts a batch replay if there is backlog and the DB
// primary is up.
func (q *QueueServer) drainTick(now sim.Time) {
	if q.draining || q.n == 0 {
		return
	}
	if q.dbc.server(0).down {
		return
	}
	q.draining = true
	q.batchLeft = q.spec.BatchSize
	if q.batchLeft > q.n {
		q.batchLeft = q.n
	}
	q.drainQI = 0
	d := q.drainFree.Get()
	d.q = q
	q.drainStep(d)
}

// drainStep advances the batch one query at a time, completing entries
// as their chains finish.
func (q *QueueServer) drainStep(d *queueDrain) {
	for q.drainQI >= len(q.ring[q.head].queries) {
		e := &q.ring[q.head]
		lag := float64(q.k.Now()-e.at) / float64(sim.Millisecond)
		if lag > q.Stats.MaxLagMs {
			q.Stats.MaxLagMs = lag
		}
		q.Stats.Drained++
		q.head = (q.head + 1) % len(q.ring)
		q.n--
		q.drainQI = 0
		q.batchLeft--
		if q.batchLeft <= 0 || q.n == 0 {
			q.be.Mem().Set("wqueue", q.params.MemBase+float64(q.n)*q.params.MemPerEntry)
			q.Stats.Batches++
			q.draining = false
			q.drainFree.Put(d)
			return
		}
	}
	srv := q.dbc.server(0)
	if srv.down {
		q.abortBatch(d)
		return
	}
	d.srv = srv
	d.dbEpoch = srv.epoch
	q.be.SubmitCPU(q.params.DrainCycles, nil, nil)
	q.dbPaths[srv.id].To.Transfer(q.ring[q.head].queries[q.drainQI].RequestBytes, queueDrainSent, d)
}

// queueDrainSent fires when the replayed query reached the DB tier.
func queueDrainSent(arg any) {
	d := arg.(*queueDrain)
	q := d.q
	if d.srv.down || d.srv.epoch != d.dbEpoch {
		q.abortBatch(d)
		return
	}
	d.srv.HandleQuery(q.ring[q.head].queries[q.drainQI], q.dbPaths[d.srv.id].From, queueDrainReply, d)
}

// queueDrainReply fires when the DB's reply reached the broker.
func queueDrainReply(arg any) {
	d := arg.(*queueDrain)
	q := d.q
	if d.srv.down || d.srv.epoch != d.dbEpoch {
		q.abortBatch(d)
		return
	}
	q.drainQI++
	q.drainStep(d)
}

// abortBatch stops a replay whose DB target died mid-batch; the current
// entry redelivers from its first query on a later tick.
func (q *QueueServer) abortBatch(d *queueDrain) {
	if q.drainQI > 0 {
		q.Stats.Redeliveries++
	}
	q.drainQI = 0
	q.draining = false
	q.drainFree.Put(d)
}

// Snapshot returns the accounting with the live backlog depth filled.
func (q *QueueServer) Snapshot() QueueStats {
	s := q.Stats
	s.FinalDepth = q.n
	return s
}
