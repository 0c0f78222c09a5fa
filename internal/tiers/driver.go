package tiers

import (
	"strconv"

	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/sysstat"
	"vwchar/internal/telemetry"
)

// Driver is the client emulator: each session thinks, issues the next
// interaction, waits for the response, and repeats — the RUBiS client
// model with exponential think time. NewDriver builds the paper's closed
// loop of endless client sessions; NewOpenDriver builds the open loop,
// whose sessions arrive, run a drawn length and leave (openloop.go).
// Both loops share one request path: issue, sessionDone, afterResponse.
//
// Response times flow into a telemetry.Recorder: a windowed
// log-histogram pipeline whose run-level mean and quantiles are exact
// while observations fit a bounded spill, histogram-accurate beyond it.
type Driver struct {
	k     *sim.Kernel
	app   *rubis.App
	model rubis.Model
	web   Frontend
	costs rubis.CostParams

	// clients holds the closed loop's sessions and is empty in the open
	// loop. A session draws from streams[session.id]: client i's own
	// pair, or in the open loop the one pair every session (id 0)
	// shares.
	clients []session
	streams []clientStreams

	// open holds the open loop's parameters; nil arrivals mark the
	// closed loop. arrive feeds the arrival process; life draws ramp
	// admission and session lengths; the shared pair, both halves one
	// "open-behave" stream, draws interaction picks and think times.
	// Sessions share the driver streams (the kernel is single-threaded,
	// so draw order is deterministic) instead of paying two lagged-
	// Fibonacci seedings per session the way per-client streams would.
	open         openLoop
	arrive, life *rng.Stream
	sessFree     sim.FreeList[session]
	active       int
	nextID       int64
	// Sessions is the open loop's session-churn accounting; it stays
	// zero in the closed loop.
	Sessions SessionStats

	// Completed counts finished interactions; Errors counts failed ones.
	Completed uint64
	Errors    uint64

	// Issued counts requests dispatched into the serving path;
	// TimedOut/Shed/Failed/Degraded split the abnormal outcomes
	// (Completed covers the served remainder), and the rest (Issued -
	// Completed - TimedOut - Shed - Failed - Degraded) is in flight.
	// The four splits are zero on fault-free runs.
	Issued   uint64
	TimedOut uint64
	Shed     uint64
	Failed   uint64
	Degraded uint64

	rec      *telemetry.Recorder
	inflight int
	byKind   [rubis.NumInteractions]uint64
	writes   uint64
}

// session is one client session: identity, the Markov position, the DB
// routing state, and a cost breakdown reused across interactions (the
// loop keeps at most one request in flight per session). The session
// itself is the context argument for every callback on its request
// path, so the steady-state loop allocates nothing. A closed-loop
// client is one endless session, so read-your-writes stickiness spans
// the run; an open-loop session is pooled and recycled when it ends.
type session struct {
	d *Driver
	// id indexes the driver's streams; remaining is an open session's
	// interaction budget. Both are 32-bit so the pooled open session
	// keeps its allocation size class.
	id, remaining int32
	sess          rubis.Session
	state         rubis.Interaction
	sentAt        sim.Time
	rt            Route
	res           rubis.Result
}

// clientStreams are the think and pick streams a session draws from.
type clientStreams struct{ think, pick *rng.Stream }

// newDriver holds the state both constructors share. The recorder's
// windows match the sysstat sampling period; its exact reservoir comes
// from telemetry's pool at full size, so steady-state observation never
// allocates. The series themselves are sized later, when
// experiment.Run calls the recorder's ReserveWindows with the
// duration-derived window count.
func newDriver(k *sim.Kernel, app *rubis.App, model rubis.Model, web Frontend, costs rubis.CostParams) *Driver {
	return &Driver{
		k:     k,
		app:   app,
		model: model,
		web:   web,
		costs: costs,
		rec:   telemetry.NewRecorder(sysstat.SampleInterval.Sec()),
	}
}

// NewDriver builds a closed-loop driver for n clients using independent
// named substreams from src. Every client's query buffer is carved from
// one backing array of rubis.MaxQueries slots per client, capped so no
// client's appends reach its neighbour's.
func NewDriver(k *sim.Kernel, app *rubis.App, model rubis.Model, web Frontend, costs rubis.CostParams, n int, src *rng.Source) *Driver {
	d := newDriver(k, app, model, web, costs)
	d.clients = make([]session, n)
	d.streams = make([]clientStreams, n)
	queries := make([]rubis.QueryCost, n*rubis.MaxQueries)
	for i := range d.clients {
		think, pick := clientSeeds(src, i)
		d.streams[i] = clientStreams{think: rng.NewStream(think), pick: rng.NewStream(pick)}
		s := &d.clients[i]
		s.id = int32(i)
		q := i * rubis.MaxQueries
		s.res.Queries = queries[q : q : q+rubis.MaxQueries]
		d.begin(s, int64(i))
	}
	return d
}

// clientSeeds returns the seeds of client i's streams, equal to
// src.SeedFor("client-<i>-think") and src.SeedFor("client-<i>-pick").
// The names are formatted in a stack buffer, so no string is built.
func clientSeeds(src *rng.Source, i int) (think, pick uint64) {
	var buf [32]byte
	b := strconv.AppendInt(append(buf[:0], "client-"...), int64(i), 10)
	n := len(b)
	think = src.SeedForBytes(append(b, "-think"...))
	pick = src.SeedForBytes(append(b[:n], "-pick"...))
	return think, pick
}

// begin points s at the start of session id: the model's start state
// and a focus spread over the dataset's users, items, categories and
// regions.
func (d *Driver) begin(s *session, id int64) {
	s.d = d
	s.state = d.model.StartState()
	s.sess.UserID = id % d.app.TotalUsers()
	s.sess.ItemID = (id * 7) % d.app.TotalItems()
	s.sess.CategoryID = id % int64(d.app.Config.Categories)
	s.sess.RegionID = id % int64(d.app.Config.Regions)
	s.sess.ToUserID = (id * 13) % d.app.TotalUsers()
}

// Release hands every stream the driver owns back to rng for reuse by
// later drivers and clears it, so a stale draw panics rather than
// reading another run's stream. The recorder's reservoir and histograms
// go back to telemetry's pools, and the open loop's parked sessions to
// the pool the next open-loop driver draws from. The driver must not
// run or be released again.
func (d *Driver) Release() {
	for i := range d.streams {
		c := &d.streams[i]
		c.think.Release()
		if c.pick != c.think {
			c.pick.Release()
		}
		*c = clientStreams{}
	}
	if d.open.arrivals != nil {
		d.arrive.Release()
		d.life.Release()
		d.arrive, d.life = nil, nil
	}
	for d.sessFree.Len() > 0 {
		parkedSessions.Put(d.sessFree.Get())
	}
	d.rec.Release()
}

// Start schedules the first events: the first arrival in the open
// loop; in the closed loop every client's first request, spread over
// one think period so the loop starts desynchronized, as real load
// generators ramp.
func (d *Driver) Start() {
	if d.open.arrivals != nil {
		d.armArrival()
		return
	}
	for i := range d.clients {
		think := d.streams[i].think
		delay := sim.Seconds(think.Float64() * d.model.ThinkSeconds(think) / 2)
		d.k.AfterCall(delay, sessionIssue, &d.clients[i])
	}
}

// sessionIssue fires when a session's think time elapses.
func sessionIssue(arg any) {
	s := arg.(*session)
	s.d.issue(s)
}

func (d *Driver) issue(s *session) {
	pick := d.streams[s.id].pick
	s.state = d.model.NextInteraction(s.state, pick)
	if err := d.app.ExecuteInto(&s.res, s.state, &s.sess, pick, d.costs); err != nil {
		// An interaction failure is a model bug worth surfacing in
		// results rather than a condition to paper over silently; the
		// session moves on as after any response.
		d.Errors++
		d.afterResponse(s, 0, false)
		return
	}
	d.byKind[s.res.Interaction]++
	if s.res.IsWrite {
		d.writes++
	}
	s.sentAt = d.k.Now()
	d.observeSent()
	d.web.Dispatch(&s.res, &s.rt, sessionDone, s)
}

// sessionDone fires when the response reached the client. It clears an
// abnormal outcome stamp (fault-injection runs only) for the session's
// next interaction.
func sessionDone(arg any) {
	s := arg.(*session)
	d := s.d
	rt, o := d.k.Now()-s.sentAt, s.rt.Outcome
	d.conclude(o, rt.Sec(), s.res.IsWrite, int(s.res.Interaction))
	s.rt.Outcome = OutcomeServed
	d.afterResponse(s, rt, o != OutcomeServed)
}

// afterResponse moves a session on once an interaction concluded. In
// the open loop the session leaves when its drawn length is exhausted
// and abandons when the response errored or blew the SLO; a closed-loop
// client always goes on, retrying after its usual think time when the
// request faulted. A session that goes on thinks, then issues again.
func (d *Driver) afterResponse(s *session, rt sim.Time, faulted bool) {
	if d.open.arrivals != nil {
		s.remaining--
		if s.remaining <= 0 {
			d.endSession(s, false)
			return
		}
		if faulted {
			// An error page drives the user away like an SLO breach, but
			// it stays out of the abandonment latency histogram: that
			// histogram attributes demand driven away by *slowness*
			// (AnalyzeScaling subtracts it from the SLO-violation count).
			d.endSession(s, true)
			return
		}
		if d.open.abandonAfter > 0 && rt > d.open.abandonAfter {
			// The violating response itself is already in the main
			// histogram (it was served, just slowly); the abandonment
			// histogram additionally attributes it as demand driven away.
			d.rec.NoteAbandon(rt.Sec())
			d.endSession(s, true)
			return
		}
	}
	think := d.streams[s.id].think
	d.k.AfterCall(sim.Seconds(d.model.ThinkSeconds(think)), sessionIssue, s)
}

// observeSent marks one request leaving the client, for the in-flight
// concurrency gauge and the issued tally.
func (d *Driver) observeSent() {
	d.inflight++
	d.Issued++
}

// conclude records the end of one request with outcome o. A served
// request's response time rt (s) enters the latency pipeline,
// attributed to its read or read-write class and its dense interaction
// kind. Any other outcome counts toward the outcome split (and through
// it the per-window fault series), but its turnaround never enters the
// latency pipeline (an error response's sub-millisecond "latency" would
// poison the served distribution).
func (d *Driver) conclude(o Outcome, rt float64, isWrite bool, kind int) {
	d.inflight--
	switch o {
	case OutcomeServed:
		d.Completed++
		d.rec.RecordKind(rt, isWrite, kind)
	case OutcomeTimedOut:
		d.TimedOut++
	case OutcomeShed:
		d.Shed++
	case OutcomeDegraded:
		d.Degraded++
	default:
		d.Failed++
	}
}

// RotateWindow closes the current telemetry window, sampling the
// in-flight gauge at the boundary. experiment.Run hooks it onto the
// sysstat collector's sampling ticker so the latency series share the
// resource series' time axis.
func (d *Driver) RotateWindow(now sim.Time) { d.rec.Rotate(d.inflight) }

// Recorder exposes the driver's telemetry recorder: its window series,
// where components register theirs before ReserveWindows, and its
// run-level histograms.
func (d *Driver) Recorder() *telemetry.Recorder { return d.rec }

// WriteFraction reports the share of completed interactions that were
// read-write.
func (d *Driver) WriteFraction() float64 {
	if d.Completed == 0 {
		return 0
	}
	return float64(d.writes) / float64(d.Completed)
}

// InteractionCounts returns the per-interaction tally, holding only the
// kinds that were issued.
func (d *Driver) InteractionCounts() map[rubis.Interaction]uint64 {
	out := make(map[rubis.Interaction]uint64)
	for kind, n := range d.byKind {
		if n > 0 {
			out[rubis.Interaction(kind)] = n
		}
	}
	return out
}

// ResponseTimeQuantile reports the q-quantile of observed response
// times in seconds: exact (bit-identical to the replaced sort-the-
// reservoir computation) while the run fits the recorder's bounded
// exact spill, merged-histogram accurate beyond it.
func (d *Driver) ResponseTimeQuantile(q float64) float64 {
	return d.rec.Quantile(q)
}

// MeanResponseTime reports the mean response time in seconds, exact
// over every observation via the recorder's running sum.
func (d *Driver) MeanResponseTime() float64 {
	return d.rec.Mean()
}
