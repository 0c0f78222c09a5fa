package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// wheelGeometries are the tiny far-queue shapes the far-path tests run
// on: bucket widths of 1–32 ns and 2–16 slots, so that random times of
// a few thousand ns cross the horizon, fill the wheel, overflow it,
// wrap it, and leave it empty with only overflow left.
var wheelGeometries = []struct {
	shift uint
	slots int
}{
	{0, 2}, {0, 16}, {1, 4}, {2, 8}, {3, 2}, {3, 16}, {4, 4}, {5, 8},
}

// oracleSpec is the reference model's view of one event.
type oracleSpec struct {
	at    Time
	order int // logical insertion order; reschedule and re-arm refresh it
	live  bool
	fired bool
}

// farOracle drives a kernel and checks every firing against the
// reference (at, order) minimum over the live events, so nested
// scheduling, partial runs and ticker re-arms are all checked in place.
type farOracle struct {
	t      *testing.T
	k      *Kernel
	r      *rand.Rand
	span   Time
	order  int
	specs  []oracleSpec
	events []Event // zero for tickers, which have no handle
	fires  int
	// tickers counts the tickers started; each keeps one event queued.
	tickers int

	// Paths observed, so the test fails if a geometry stops reaching them.
	sawWheel, sawOverflow, sawToFar, sawToHeap, sawFarCancel bool
}

func (o *farOracle) nextOrder() int {
	o.order++
	return o.order
}

func (o *farOracle) observe() {
	if o.k.farN > o.k.overN {
		o.sawWheel = true
	}
	if o.k.overN > 0 {
		o.sawOverflow = true
	}
}

// fired checks that id is the reference minimum and retires it.
func (o *farOracle) fired(id int) {
	o.t.Helper()
	best := -1
	for i, s := range o.specs {
		if !s.live {
			continue
		}
		if best < 0 || s.at < o.specs[best].at || (s.at == o.specs[best].at && s.order < o.specs[best].order) {
			best = i
		}
	}
	if best != id {
		o.t.Fatalf("fired ev%d (at %d), oracle wants ev%d", id, o.specs[id].at, best)
	}
	if o.k.Now() != o.specs[id].at {
		o.t.Fatalf("ev%d fired at Now %d, scheduled for %d", id, o.k.Now(), o.specs[id].at)
	}
	o.specs[id].live = false
	o.specs[id].fired = true
	o.fires++
}

func (o *farOracle) randTime() Time {
	// Mostly near, sometimes far beyond a tiny wheel's span.
	if o.r.Intn(4) == 0 {
		return o.k.Now() + Time(o.r.Intn(int(8*o.span)))
	}
	return o.k.Now() + Time(o.r.Intn(int(o.span/2)+1))
}

// schedule queues a one-shot event that, when it fires, may schedule,
// cancel or reschedule others from inside its callback.
func (o *farOracle) schedule(at Time) {
	id := len(o.specs)
	o.specs = append(o.specs, oracleSpec{at: at, order: o.nextOrder(), live: true})
	o.events = append(o.events, atFunc(o.k, at, func() {
		o.fired(id)
		if len(o.specs) < 400 && o.r.Intn(3) == 0 {
			o.mutate()
		}
	}))
	o.observe()
}

// mutate applies one random schedule, cancel or reschedule. Tickers
// have no handle, so picking one schedules instead.
func (o *farOracle) mutate() {
	i := -1
	if len(o.specs) > 0 {
		i = o.r.Intn(len(o.specs))
	}
	switch c := o.r.Intn(10); {
	case c <= 4 || i < 0 || o.events[i] == (Event{}):
		o.schedule(o.randTime())
	case c <= 6:
		o.cancel(i)
	default:
		e := o.events[i]
		wasLive := o.specs[i].live
		wasHeap := e.pending() && o.k.arena[e.idx].pos >= 0
		at := o.randTime()
		ok := e.Reschedule(at)
		switch {
		case o.specs[i].fired && ok:
			o.t.Fatalf("Reschedule of fired ev%d returned true", i)
		case wasLive && !ok:
			o.t.Fatalf("Reschedule of live ev%d returned false", i)
		}
		if ok {
			o.specs[i] = oracleSpec{at: at, order: o.nextOrder(), live: true}
			if nowHeap := o.k.arena[e.idx].pos >= 0; wasLive && wasHeap && !nowHeap {
				o.sawToFar = true
			} else if wasLive && !wasHeap && nowHeap {
				o.sawToHeap = true
			}
		}
		o.observe()
	}
}

// ticker starts a ticker whose re-arms the oracle tracks as fresh
// events. Tickers never stop, so a trial ends with one live event each.
func (o *farOracle) ticker() {
	id := len(o.specs)
	start := o.randTime()
	period := Time(1 + o.r.Intn(int(o.span)))
	o.specs = append(o.specs, oracleSpec{at: start, order: o.nextOrder(), live: true})
	o.events = append(o.events, Event{})
	o.tickers++
	o.k.Every(start, period, func(now Time) {
		o.fired(id)
		if len(o.specs) < 400 && o.r.Intn(2) == 0 {
			o.mutate()
		}
		// The kernel re-arms after fn returns, so the re-arm orders
		// after anything fn scheduled.
		o.specs[id] = oracleSpec{at: now + period, order: o.nextOrder(), live: true}
	})
}

// lastOneShot returns the latest time of a live event that is not a
// ticker's, or -1 when none is left.
func (o *farOracle) lastOneShot() Time {
	last := Time(-1)
	for i, s := range o.specs {
		if s.live && o.events[i] != (Event{}) && s.at > last {
			last = s.at
		}
	}
	return last
}

// cancel cancels event i, noting when it takes an entry out of the far
// lists.
func (o *farOracle) cancel(i int) {
	o.specs[i].live = false
	far := o.k.farN
	o.events[i].Cancel()
	if o.k.farN < far {
		o.sawFarCancel = true
	}
}

func (o *farOracle) livePending() int {
	n := 0
	for _, s := range o.specs {
		if s.live {
			n++
		}
	}
	return n
}

func (o *farOracle) checkPending() {
	o.t.Helper()
	if got, want := o.k.pending(), o.livePending(); got != want {
		o.t.Fatalf("pending = %d, oracle has %d live events", got, want)
	}
	for i, e := range o.events {
		if e == (Event{}) {
			continue
		}
		if e.pending() != o.specs[i].live {
			o.t.Fatalf("ev%d Pending = %v, oracle live = %v", i, e.pending(), o.specs[i].live)
		}
	}
}

// TestPropertyFarQueueMatchesOracle drives kernels with tiny buckets
// through every far-queue path — wheel and overflow insert, the wrap
// spill and empty-wheel jump, Reschedule across the horizon both ways,
// Cancel of far entries, ticker re-arms into the wheel,
// nested scheduling from callbacks, and Run(until) returning with the
// horizon past until before more events are scheduled behind it — and
// checks each firing against the (at, seq) sort oracle.
func TestPropertyFarQueueMatchesOracle(t *testing.T) {
	var seen farOracle
	for gi, g := range wheelGeometries {
		t.Run(fmt.Sprintf("shift%d_slots%d", g.shift, g.slots), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(31 + gi)))
			for trial := 0; trial < 150; trial++ {
				k := newKernel(g.shift, g.slots)
				o := &farOracle{t: t, k: k, r: r, span: Time(g.slots) << g.shift}
				for op := 0; op < 80; op++ {
					switch c := r.Intn(20); {
					case c == 0:
						o.ticker()
					case c <= 2:
						// A partial run: afterwards the horizon may be
						// past until, and the next ops schedule behind it.
						until := k.Now() + Time(r.Intn(int(2*o.span)))
						before := o.fires
						k.Run(until)
						if k.Now() != until {
							t.Fatalf("Now = %d after Run(%d)", k.Now(), until)
						}
						if o.fires > before && o.livePending() > 0 {
							o.checkPending()
						}
					case c == 3:
						// A burst, then a mass cancel while many of
						// the events sit far.
						for i := 0; i < 64; i++ {
							o.schedule(o.randTime())
						}
						for i := range o.specs {
							if o.specs[i].live && o.events[i] != (Event{}) && r.Intn(4) != 0 {
								o.cancel(i)
							}
						}
					default:
						o.mutate()
					}
				}
				o.checkPending()
				// Drain every one-shot event with bounded runs; firings
				// along the way may schedule later ones, so run again
				// until none is left and only the tickers stay queued.
				for last := o.lastOneShot(); last >= 0; last = o.lastOneShot() {
					k.Run(last)
				}
				o.checkPending()
				if n := o.livePending(); n != o.tickers {
					t.Fatalf("trial %d: %d oracle events live after drain, want the %d tickers", trial, n, o.tickers)
				}
				if len(k.heap)+k.farN != o.tickers {
					t.Fatalf("trial %d: drained kernel holds heap=%d far=%d over=%d, want the %d tickers",
						trial, len(k.heap), k.farN, k.overN, o.tickers)
				}
				seen.sawWheel = seen.sawWheel || o.sawWheel
				seen.sawOverflow = seen.sawOverflow || o.sawOverflow
				seen.sawToFar = seen.sawToFar || o.sawToFar
				seen.sawToHeap = seen.sawToHeap || o.sawToHeap
				seen.sawFarCancel = seen.sawFarCancel || o.sawFarCancel
			}
		})
	}
	for name, ok := range map[string]bool{
		"wheel insert":           seen.sawWheel,
		"overflow insert":        seen.sawOverflow,
		"reschedule heap to far": seen.sawToFar,
		"reschedule far to heap": seen.sawToHeap,
		"cancel of a far entry":  seen.sawFarCancel,
	} {
		if !ok {
			t.Errorf("no trial exercised %s", name)
		}
	}
}

// TestFarQueueWrapAndJump pins the refill path that moves the wheel:
// once the wheel empties, the kernel starts the rotation of the earliest
// overflow entry, spilling what fits, and a lone far-future entry is
// reached by one jump rather than by stepping through empty rotations.
// Run(until) may leave the horizon past until, since it refills to find
// the next event.
func TestFarQueueWrapAndJump(t *testing.T) {
	k := newKernel(0, 4) // 1 ns buckets, 4-bucket rotations
	var got []Time
	rec := func() { got = append(got, k.Now()) }
	for _, at := range []Time{2, 3, 6, 1 << 40, 9} {
		atFunc(k, at, rec)
	}
	if k.overN != 3 || k.farN != 5 {
		t.Fatalf("overflow %d, far %d; want 3 and 5", k.overN, k.farN)
	}
	steps := []struct {
		until           Time
		cur, last       int64
		overflow, fired int
	}{
		// 2 and 3 fire from the wheel; the search for the next event
		// empties it and jumps into rotation [4, 7], spilling 6.
		{3, 6, 7, 2, 2},
		// 6 fires; the next jump spills 9 into rotation [8, 11].
		{6, 9, 11, 1, 3},
		// 9 fires; the last jump lands straight on bucket 2^40.
		{MaxTime, 1 << 40, 1<<40 | 3, 0, 5},
	}
	for _, s := range steps {
		k.Run(s.until)
		if k.cur != s.cur || k.last != s.last || k.overN != s.overflow || len(got) != s.fired {
			t.Fatalf("after Run(%d): cur %d last %d overflow %d fired %d; want %d %d %d %d",
				s.until, k.cur, k.last, k.overN, len(got), s.cur, s.last, s.overflow, s.fired)
		}
	}
	if want := []Time{2, 3, 6, 9, 1 << 40}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
}

// TestStaleHandleRecycledThroughWheelIsInert: a handle whose event fired
// from the wheel, and whose slot was then reused by an event parked in
// the wheel or the overflow, must not touch the new occupant.
func TestStaleHandleRecycledThroughWheelIsInert(t *testing.T) {
	k := newKernel(2, 4) // 4 ns buckets, 16 ns rotations
	overflow := posFar0 - int32(len(k.heads)-1)
	old := atFunc(k, 9, func() {})
	if p := k.arena[old.idx].pos; p >= posIdle || p == overflow {
		t.Fatalf("setup: event at 9 has pos %d, want a wheel slot", p)
	}
	k.Run(10)
	if old.pending() || old.time() != -1 {
		t.Fatal("fired handle still reports pending")
	}
	for _, c := range []struct {
		delay    Time
		overflow bool
	}{{5, false}, {100, true}} {
		fired := 0
		at := k.Now() + c.delay
		fresh := atFunc(k, at, func() { fired++ })
		if fresh.idx != old.idx {
			t.Fatalf("setup: slot %d not recycled (got %d)", old.idx, fresh.idx)
		}
		if p := k.arena[fresh.idx].pos; p >= posIdle || (p == overflow) != c.overflow {
			t.Fatalf("setup: event %v ahead has pos %d, overflow %v", c.delay, p, c.overflow)
		}
		old.Cancel()
		if old.Reschedule(k.Now()) {
			t.Fatal("Reschedule through a stale handle returned true")
		}
		if old.pending() || old.time() != -1 {
			t.Fatal("stale handle reports the recycled event")
		}
		if !fresh.pending() || fresh.time() != at {
			t.Fatalf("recycled event disturbed: pending %v at %v", fresh.pending(), fresh.time())
		}
		k.Run(at)
		if fired != 1 {
			t.Fatalf("recycled event at %v fired %d times", at, fired)
		}
		old = fresh
	}
	if k.pending() != 0 {
		t.Fatalf("Pending = %d after drain", k.pending())
	}
}
