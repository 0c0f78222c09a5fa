package tiers

import (
	"vwchar/internal/faults"
	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
)

// Outcome classifies how a dispatched request ended, stamped on the
// session's Route by the serving path. The zero value is Served so the
// no-fault path never writes it.
type Outcome uint8

const (
	// OutcomeServed: the response reached the client normally.
	OutcomeServed Outcome = iota
	// OutcomeTimedOut: every attempt exceeded the guard's timeout.
	OutcomeTimedOut
	// OutcomeShed: the breaker was open; the request fast-failed.
	OutcomeShed
	// OutcomeFailed: a replica or DB instance was down and the error
	// response reached the client.
	OutcomeFailed
	// OutcomeDegraded: the overload controller dropped the request as
	// optional work (brownout) or fast-failed it off an over-bound
	// queue — degraded service, deliberately.
	OutcomeDegraded
)

func (o Outcome) String() string {
	switch o {
	case OutcomeServed:
		return "served"
	case OutcomeTimedOut:
		return "timed-out"
	case OutcomeShed:
		return "shed"
	case OutcomeDegraded:
		return "degraded"
	default:
		return "failed"
	}
}

const (
	// errorRespLatency is the turnaround for a locally generated error
	// response (connection refused / 503): fast, but not instantaneous.
	errorRespLatency = 500 * sim.Microsecond
	// shedRespLatency is the breaker's fast-fail turnaround.
	shedRespLatency = 200 * sim.Microsecond
	// dbErrorReplyBytes is the size of the error marker a crashed DB
	// stage sends back so the web tier's query chain always completes.
	dbErrorReplyBytes = 64
)

// GuardStats counts the guard's interventions.
type GuardStats struct {
	// Timeouts counts attempts cut off by the per-call timeout.
	Timeouts uint64
	// Retries counts re-dispatched attempts.
	Retries uint64
	// Sheds counts requests fast-failed by the open breaker.
	Sheds uint64
	// BreakerOpens counts closed->open breaker transitions.
	BreakerOpens uint64
}

// Guard wraps a Frontend with per-call timeouts, bounded retries
// (exponential backoff, deterministic jitter, retry budget), and an
// optional circuit breaker. It is only constructed when resilience is
// configured, so the default serving path is untouched.
type Guard struct {
	k          *sim.Kernel
	next       Frontend
	timeout    sim.Time
	maxRetries int
	backoff    sim.Time
	budget     float64
	jitter     *rng.Stream
	brk        *breaker
	ovl        *Overload

	attFree sim.FreeList[attempt]
	tryFree sim.FreeList[tryCtx]

	// issued counts requests entering the guard (the retry budget's
	// denominator).
	issued uint64

	Stats GuardStats
}

// attempt is the pooled per-request guard state, spanning all tries.
type attempt struct {
	g     *Guard
	res   *rubis.Result
	rt    *Route
	done  sim.Callback
	darg  any
	tries int
}

// tryCtx is the pooled per-try state. When a try times out it is
// detached (timedOut=true) and left for the eventual underlying
// response to recycle; live responses cancel the timer and recycle it
// immediately.
type tryCtx struct {
	g        *Guard
	a        *attempt
	timedOut bool
	timer    sim.Event
}

// NewGuard wraps next with the spec's reaction knobs. jitter must be a
// dedicated rng stream (deterministic backoff jitter).
func NewGuard(k *sim.Kernel, next Frontend, spec faults.ResilienceSpec, jitter *rng.Stream) *Guard {
	spec = spec.WithDefaults()
	g := &Guard{
		k:          k,
		next:       next,
		timeout:    sim.Seconds(spec.TimeoutMillis / 1e3),
		maxRetries: spec.Retries,
		backoff:    sim.Seconds(spec.BackoffMillis / 1e3),
		budget:     spec.RetryBudget,
		jitter:     jitter,
	}
	if b := spec.Breaker; b != nil {
		g.brk = &breaker{
			win:       make([]bool, b.WindowRequests),
			threshold: b.ErrorThreshold,
			openFor:   sim.Seconds(b.OpenMillis / 1e3),
		}
	}
	return g
}

// RetryCount reports total retries so far (telemetry's cumulative
// retry source).
func (g *Guard) RetryCount() uint64 { return g.Stats.Retries }

// SetOverload wires the brownout controller the guard consults at
// admission; nil leaves the path untouched.
func (g *Guard) SetOverload(o *Overload) { g.ovl = o }

// Dispatch implements Frontend.
func (g *Guard) Dispatch(res *rubis.Result, rt *Route, done sim.Callback, arg any) {
	if g.ovl != nil && g.ovl.admitDrop(res) {
		// Brownout: the request is optional read work at the current
		// degradation level; answer degraded-fast instead of queueing.
		a := g.attFree.Get()
		a.g = g
		a.rt = rt
		a.done = done
		a.darg = arg
		g.k.AfterCall(shedRespLatency, guardDegradeFire, a)
		return
	}
	if g.brk != nil && g.k.Now() < g.brk.openUntil {
		// Breaker open: shed fast-fail without touching the cluster.
		g.Stats.Sheds++
		a := g.attFree.Get()
		a.g = g
		a.rt = rt
		a.done = done
		a.darg = arg
		g.k.AfterCall(shedRespLatency, guardShedFire, a)
		return
	}
	g.issued++
	if rt != nil {
		rt.Outcome = OutcomeServed
	}
	a := g.attFree.Get()
	a.g = g
	a.res = res
	a.rt = rt
	a.done = done
	a.darg = arg
	a.tries = 0
	g.launch(a)
}

// guardShedFire delivers the breaker's fast-fail response.
func guardShedFire(arg any) {
	a := arg.(*attempt)
	if a.rt != nil {
		a.rt.Outcome = OutcomeShed
	}
	a.g.finish(a)
}

// guardDegradeFire delivers the brownout controller's degraded
// response.
func guardDegradeFire(arg any) {
	a := arg.(*attempt)
	if a.rt != nil {
		a.rt.Outcome = OutcomeDegraded
	}
	a.g.finish(a)
}

func (g *Guard) launch(a *attempt) {
	a.tries++
	t := g.tryFree.Get()
	t.g = g
	t.a = a
	if g.timeout > 0 {
		t.timer = g.k.AfterCall(g.timeout, guardTryTimeout, t)
	}
	g.next.Dispatch(a.res, a.rt, guardTryDone, t)
}

// guardTryDone fires when the underlying dispatch completed (served or
// errored). For a detached (timed-out) try this is the late response:
// recycle the slot and drop it — the attempt has moved on.
func guardTryDone(arg any) {
	t := arg.(*tryCtx)
	g := t.g
	if t.timedOut {
		g.tryFree.Put(t)
		return
	}
	t.timer.Cancel()
	a := t.a
	g.tryFree.Put(t)
	failed := a.rt != nil && a.rt.Outcome != OutcomeServed
	if g.brk != nil {
		g.noteBreaker(failed)
	}
	if failed && g.canRetry(a) {
		g.scheduleRetry(a)
		return
	}
	g.finish(a)
}

// guardTryTimeout fires when an attempt exceeded the timeout: detach
// the try (its eventual completion recycles the slot) and retry or
// fail the request.
func guardTryTimeout(arg any) {
	t := arg.(*tryCtx)
	g := t.g
	t.timedOut = true
	a := t.a
	if a.rt != nil {
		// The session is moving on (retry or timeout response) while
		// the abandoned try may still be running server-side: bump the
		// route's generation so the straggler stops writing into it.
		a.rt.gen++
	}
	g.Stats.Timeouts++
	if g.brk != nil {
		g.noteBreaker(true)
	}
	if g.canRetry(a) {
		g.scheduleRetry(a)
		return
	}
	if a.rt != nil {
		a.rt.Outcome = OutcomeTimedOut
	}
	g.finish(a)
}

// canRetry checks the retry count, the budget, and the breaker.
func (g *Guard) canRetry(a *attempt) bool {
	if a.tries > g.maxRetries {
		return false
	}
	if float64(g.Stats.Retries) >= g.budget*float64(g.issued) {
		return false
	}
	if g.brk != nil && g.k.Now() < g.brk.openUntil {
		return false
	}
	return true
}

func (g *Guard) scheduleRetry(a *attempt) {
	g.Stats.Retries++
	d := g.backoff << uint(a.tries-1)
	if g.jitter != nil && d > 0 {
		d += sim.Time(0.5 * float64(d) * g.jitter.Float64())
	}
	if a.rt != nil {
		a.rt.Outcome = OutcomeServed
	}
	g.k.AfterCall(d, guardRetryFire, a)
}

// guardRetryFire relaunches the attempt after its backoff.
func guardRetryFire(arg any) {
	a := arg.(*attempt)
	a.g.launch(a)
}

// finish hands the outcome to the caller and recycles the attempt.
func (g *Guard) finish(a *attempt) {
	done, darg := a.done, a.darg
	a.res = nil
	a.rt = nil
	a.done = nil
	a.darg = nil
	g.attFree.Put(a)
	if done != nil {
		done(darg)
	}
}

// noteBreaker feeds one outcome into the breaker window; on a
// closed->open transition the open counter bumps.
func (g *Guard) noteBreaker(failed bool) {
	if g.brk.observe(g.k.Now(), failed) {
		g.Stats.BreakerOpens++
	}
}

// breaker is a ring-buffer failure-fraction circuit breaker. When the
// window is full and the failure fraction reaches the threshold it
// opens for openFor; the window resets on open, so after the open
// interval it must refill before tripping again (half-open probing).
type breaker struct {
	win       []bool
	pos       int
	filled    int
	fails     int
	threshold float64
	openFor   sim.Time
	openUntil sim.Time
}

// observe records one outcome; it reports whether the breaker just
// opened.
func (b *breaker) observe(now sim.Time, failed bool) bool {
	if now < b.openUntil {
		return false
	}
	if b.filled == len(b.win) {
		if b.win[b.pos] {
			b.fails--
		}
	} else {
		b.filled++
	}
	b.win[b.pos] = failed
	if failed {
		b.fails++
	}
	b.pos++
	if b.pos == len(b.win) {
		b.pos = 0
	}
	if b.filled == len(b.win) && float64(b.fails) >= b.threshold*float64(b.filled) {
		b.openUntil = now + b.openFor
		for i := range b.win {
			b.win[i] = false
		}
		b.pos, b.filled, b.fails = 0, 0, 0
		return true
	}
	return false
}

// FailoverEvent records one DB primary promotion.
type FailoverEvent struct {
	// DetectedAt is when the health monitor first saw the primary down.
	DetectedAt sim.Time
	// PromotedAt is when a replica was promoted (detection window
	// elapsed).
	PromotedAt sim.Time
	// NewPrimary is the promoted replica's pre-promotion routing index
	// (1..R).
	NewPrimary int
}

// HealthMonitor periodically probes the cluster: dead web replicas are
// ejected from the LB rotation after EjectAfterChecks consecutive
// failures (readmitted on recovery), and a dead DB primary triggers
// replica promotion after the detection window.
type HealthMonitor struct {
	k          *sim.Kernel
	web        *WebCluster
	dbc        *DBCluster
	every      sim.Time
	ejectAfter int
	detect     sim.Time

	webFails      []int
	primarySeen   bool
	primaryDownAt sim.Time

	// Failovers is the promotion log, in time order.
	Failovers []FailoverEvent
}

// NewHealthMonitor wires the monitor; call Start to begin probing.
func NewHealthMonitor(k *sim.Kernel, web *WebCluster, dbc *DBCluster, spec faults.ResilienceSpec) *HealthMonitor {
	spec = spec.WithDefaults()
	return &HealthMonitor{
		k:          k,
		web:        web,
		dbc:        dbc,
		every:      sim.Seconds(spec.HealthEverySeconds),
		ejectAfter: spec.EjectAfterChecks,
		detect:     sim.Seconds(spec.FailoverDetectSeconds),
		webFails:   make([]int, len(web.Replicas)),
	}
}

// Start begins the periodic health checks.
func (hm *HealthMonitor) Start() {
	hm.k.Every(hm.every, hm.every, hm.tick)
}

func (hm *HealthMonitor) tick(now sim.Time) {
	for i, r := range hm.web.Replicas {
		if r.down {
			hm.webFails[i]++
			if hm.web.state[i] == ReplicaActive && hm.webFails[i] >= hm.ejectAfter {
				hm.web.Eject(i, "health check failed")
			}
			continue
		}
		hm.webFails[i] = 0
		if hm.web.state[i] == ReplicaDown {
			hm.web.Readmit(i, "health check recovered")
		}
	}
	if hm.dbc == nil {
		return
	}
	if !hm.dbc.Primary.down {
		hm.primarySeen = false
		return
	}
	if !hm.primarySeen {
		hm.primarySeen = true
		hm.primaryDownAt = now
	}
	if now-hm.primaryDownAt < hm.detect {
		return
	}
	for j, rep := range hm.dbc.Replicas {
		if rep.down {
			continue
		}
		hm.promote(now, j)
		return
	}
}

// promote swaps replica j in as the new primary, so routing index 0
// reaches the promoted instance for the web tier and the queue alike.
func (hm *HealthMonitor) promote(now sim.Time, j int) {
	hm.dbc.Promote(j)
	hm.Failovers = append(hm.Failovers, FailoverEvent{
		DetectedAt: hm.primaryDownAt,
		PromotedAt: now,
		NewPrimary: 1 + j,
	})
	hm.primarySeen = false
}
