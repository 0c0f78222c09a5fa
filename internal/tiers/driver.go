package tiers

import (
	"strconv"

	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
)

// Driver is the closed-loop client emulator: each of N clients thinks,
// issues the next interaction of its session, waits for the response,
// and repeats — the RUBiS client model with exponential think time.
type Driver struct {
	k     *sim.Kernel
	app   *rubis.App
	model rubis.Model
	web   Frontend
	costs rubis.CostParams

	clients []*client
	driverStats
}

// client carries one closed-loop session. Its res cost breakdown is
// reused across interactions (the loop guarantees at most one in
// flight), and the client itself is the context argument for every
// callback on its request path — the steady-state loop allocates
// nothing. rt is the session's DB routing state: a closed-loop client
// is one long session, so read-your-writes stickiness spans the run.
type client struct {
	d      *Driver
	id     int
	sess   rubis.Session
	state  rubis.Interaction
	think  *rng.Stream
	pick   *rng.Stream
	sentAt sim.Time
	rt     Route
	res    rubis.Result
}

// NewDriver builds a driver for n clients using independent named
// substreams from src.
func NewDriver(k *sim.Kernel, app *rubis.App, model rubis.Model, web Frontend, costs rubis.CostParams, n int, src *rng.Source) *Driver {
	d := &Driver{
		k:       k,
		app:     app,
		model:   model,
		web:     web,
		costs:   costs,
		clients: make([]*client, 0, n),
	}
	d.initStats(false)
	for i := 0; i < n; i++ {
		think, pick := clientSeeds(src, i)
		c := &client{
			d:     d,
			id:    i,
			state: model.StartState(),
			think: rng.NewStream(think),
			pick:  rng.NewStream(pick),
		}
		c.sess.UserID = int64(i % int(app.TotalUsers()))
		c.sess.ItemID = int64(i*7) % app.TotalItems()
		c.sess.CategoryID = int64(i % app.Config.Categories)
		c.sess.RegionID = int64(i % app.Config.Regions)
		c.sess.ToUserID = int64((i * 13) % int(app.TotalUsers()))
		d.clients = append(d.clients, c)
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

// Release hands every client's streams back to rng for reuse by later
// drivers and clears them, so a stale draw panics rather than reading
// another run's stream. The driver must not run or be released again.
func (d *Driver) Release() {
	for _, c := range d.clients {
		c.think.Release()
		c.pick.Release()
		c.think, c.pick = nil, nil
	}
}

// Start schedules every client's first request. Clients begin spread
// over one think period so the closed loop starts desynchronized, as
// real load generators ramp.
func (d *Driver) Start() {
	for _, c := range d.clients {
		delay := sim.Seconds(c.think.Float64() * d.model.ThinkSeconds(c.think) / 2)
		d.k.AfterCall(delay, clientIssue, c)
	}
}

// clientIssue fires when a client's think time elapses.
func clientIssue(arg any) {
	c := arg.(*client)
	c.d.issue(c)
}

// clientDone fires when the response reached the client.
func clientDone(arg any) {
	c := arg.(*client)
	d := c.d
	if o := c.rt.Outcome; o != OutcomeServed {
		// Abnormal outcome (fault-injection runs only): count it, clear
		// the stamp for the next interaction, and keep the loop going —
		// a closed-loop client retries after its usual think time.
		d.observeFault(o)
		c.rt.Outcome = OutcomeServed
		d.scheduleNext(c)
		return
	}
	rt := (d.k.Now() - c.sentAt).Sec()
	d.observe(rt, c.res.IsWrite, int(c.res.Kind))
	d.scheduleNext(c)
}

func (d *Driver) issue(c *client) {
	c.state = d.model.NextInteraction(c.state, c.pick)
	err := d.app.ExecuteInto(&c.res, c.state, &c.sess, c.pick, d.costs)
	if err != nil {
		// An interaction failure is a model bug worth surfacing in
		// results rather than a condition to paper over silently.
		d.Errors++
		d.scheduleNext(c)
		return
	}
	d.noteInteraction(c.state, c.res.IsWrite)
	c.sentAt = d.k.Now()
	d.observeSent()
	d.web.Dispatch(&c.res, &c.rt, clientDone, c)
}

func (d *Driver) scheduleNext(c *client) {
	think := d.model.ThinkSeconds(c.think)
	d.k.AfterCall(sim.Seconds(think), clientIssue, c)
}
