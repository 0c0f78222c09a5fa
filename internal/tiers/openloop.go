package tiers

import (
	"math"
	"sync"

	"vwchar/internal/load"
	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
)

// openLoop holds the open-loop driver's arrival process and
// session-lifecycle knobs.
type openLoop struct {
	// arrivals produces session-start times and is owned by this driver
	// (arrival processes are stateful); nil marks the closed loop.
	arrivals load.Arrivals
	// sessionMean is the mean session length in interactions
	// (geometric; values <= 1 degenerate to single-page sessions).
	sessionMean float64
	// abandonAfter ends a session whose response exceeded this SLO;
	// 0 disables abandonment.
	abandonAfter sim.Time
	// ramp thins arrivals linearly from zero over this window.
	ramp sim.Time
}

// SessionStats is the open-loop driver's session accounting.
type SessionStats struct {
	// Offered counts arrivals the generator produced (including those
	// thinned away by the ramp); Started counts admitted sessions.
	Offered uint64
	Started uint64
	// Finished sessions ran their full drawn length; Abandoned ones
	// quit after an SLO-violating response.
	Finished  uint64
	Abandoned uint64
	// PeakActive is the maximum concurrent session count observed —
	// the population a closed-loop run would have needed.
	PeakActive int
}

// NewOpenDriver builds an open-loop driver for the validated spec over
// the web tier, using independent named substreams from src. It fails
// only when the spec's arrival process cannot be built. Sessions arrive
// on that process, run a geometric number of interactions with think
// time between them, and leave — either done or abandoning after a
// response blew the SLO. Unlike the closed loop, offered load does
// not self-throttle when the system saturates, which is what makes
// flash crowds and bursty traces show real saturation behaviour.
//
// Steady-state scheduling is allocation-free: arrivals re-arm a pooled
// kernel event via AtCall, sessions recycle through a sim.FreeList with
// their query buffers, and the response-time reservoir is reserved up
// front. Sessions outlive the driver: Release parks them in a
// process-wide pool that later open-loop drivers draw from.
func NewOpenDriver(k *sim.Kernel, app *rubis.App, model rubis.Model, web Frontend, costs rubis.CostParams, spec *load.Spec, src *rng.Source) (*Driver, error) {
	arr, err := spec.Build()
	if err != nil {
		return nil, err
	}
	d := newDriver(k, app, model, web, costs)
	d.open = openLoop{
		arrivals:     arr,
		sessionMean:  spec.EffectiveSessionMean(),
		abandonAfter: sim.Seconds(spec.AbandonAfterSeconds),
		ramp:         sim.Seconds(spec.RampSeconds),
	}
	d.arrive = src.Stream("open-arrive")
	d.life = src.Stream("open-life")
	behave := src.Stream("open-behave")
	d.streams = []clientStreams{{think: behave, pick: behave}}
	return d, nil
}

// armArrival schedules the next session start; a process that has ended
// (trace ran out) stops the loop.
func (d *Driver) armArrival() {
	t := d.open.arrivals.Next(d.k.Now(), d.arrive)
	if t >= sim.MaxTime {
		return
	}
	d.k.AtCall(t, openArrive, d)
}

// openArrive fires at each arrival epoch: admit a session (subject to
// the ramp-in thinning) and re-arm.
func openArrive(arg any) {
	d := arg.(*Driver)
	d.Sessions.Offered++
	now := d.k.Now()
	if ramp := d.open.ramp; now >= ramp || sim.Seconds(d.life.Float64()*ramp.Sec()) < now {
		d.startSession()
	}
	d.armArrival()
}

// parkedSessions holds the ended sessions of released open-loop
// drivers. A parked session is reset as endSession leaves it: only its
// route generation and its query buffer's capacity carry over, so
// reuse cannot change what a run computes.
var parkedSessions = sync.Pool{New: func() any { return new(session) }}

// startSession admits one session and issues its first interaction
// immediately (the arrival is the first page hit). A drawn length past
// 32 bits is clamped: no run lasts that many interactions.
func (d *Driver) startSession() {
	var s *session
	if d.sessFree.Len() > 0 {
		s = d.sessFree.Get()
	} else {
		s = parkedSessions.Get().(*session)
	}
	d.begin(s, d.nextID)
	d.nextID++
	s.rt.Reset()
	s.remaining = int32(min(d.life.Geometric(d.open.sessionMean), math.MaxInt32))
	d.Sessions.Started++
	d.rec.NoteStart()
	d.active++
	if d.active > d.Sessions.PeakActive {
		d.Sessions.PeakActive = d.active
	}
	d.issue(s)
}

// endSession retires s and parks it for the next arrival. It parks by
// hand instead of FreeList.Put, keeping two things Put would zero: the
// query buffer's capacity, and the route's generation. A straggler
// admitted under the ended session's generation may still be running
// server-side; were the slot's generation to restart, the next session
// on the slot could match it and the straggler would write into the
// new session's route.
func (d *Driver) endSession(s *session, abandoned bool) {
	if abandoned {
		d.Sessions.Abandoned++
	} else {
		d.Sessions.Finished++
	}
	d.rec.NoteEnd()
	d.active--
	*s = session{
		rt:  Route{gen: s.rt.gen},
		res: rubis.Result{Queries: s.res.Queries[:0]},
	}
	d.sessFree.PutReset(s)
}
