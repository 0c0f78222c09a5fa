package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// nop is the no-allocation callback used by the guard tests.
func nop(any) {}

// atFunc and afterFunc schedule a closure through AtCall/AfterCall, so
// tests can capture local state in their callbacks.
func atFunc(k *Kernel, t Time, fn func()) Event { return k.AtCall(t, callFunc, fn) }

func afterFunc(k *Kernel, d Time, fn func()) Event { return k.AfterCall(d, callFunc, fn) }

func callFunc(arg any) { arg.(func())() }

func TestReschedule(t *testing.T) {
	k := NewKernel()
	var order []string
	e := atFunc(k, Second, func() { order = append(order, "moved") })
	atFunc(k, 2*Second, func() { order = append(order, "fixed") })
	if !e.Reschedule(3 * Second) {
		t.Fatal("Reschedule on a pending event returned false")
	}
	if e.time() != 3*Second {
		t.Fatalf("Time = %v after Reschedule", e.time())
	}
	k.Run(MaxTime)
	if len(order) != 2 || order[0] != "fixed" || order[1] != "moved" {
		t.Fatalf("order = %v", order)
	}
	if e.Reschedule(5 * Second) {
		t.Fatal("Reschedule on a fired event returned true")
	}
}

// TestCancelReleasesQueuedEvents: Cancel takes a heap, a wheel and an
// overflow event out of the queue at once, the handle goes stale, and
// the next AtCall reuses the released slot.
func TestCancelReleasesQueuedEvents(t *testing.T) {
	overflow := posFar0 - int32(len(newKernel(2, 4).heads)-1)
	for _, c := range []struct {
		name string
		at   Time
		in   func(pos int32) bool
	}{
		{"heap", 2, func(p int32) bool { return p >= 0 }},
		{"wheel", 9, func(p int32) bool { return p < posIdle && p != overflow }},
		{"overflow", 100, func(p int32) bool { return p == overflow }},
	} {
		k := newKernel(2, 4) // 4 ns buckets, 16 ns rotations
		keep := atFunc(k, 1, func() {})
		e := atFunc(k, c.at, func() { t.Fatalf("%s: cancelled event fired", c.name) })
		if p := k.arena[e.idx].pos; !c.in(p) {
			t.Fatalf("%s: setup: event at %d has pos %d", c.name, c.at, p)
		}
		e.Cancel()
		if n := len(k.heap) + k.farN; n != 1 || k.pending() != 1 {
			t.Fatalf("%s: queue holds %d entries, Pending %d after Cancel; want 1", c.name, n, k.pending())
		}
		if e.pending() || e.time() != -1 || e.Reschedule(c.at) {
			t.Fatalf("%s: cancelled handle is not stale", c.name)
		}
		ran := 0
		if fresh := atFunc(k, c.at, func() { ran++ }); fresh.idx != e.idx {
			t.Fatalf("%s: AtCall took slot %d, not the released %d", c.name, fresh.idx, e.idx)
		}
		e.Cancel() // stale: must not touch the slot's new occupant
		keep.Cancel()
		k.Run(MaxTime)
		if ran != 1 {
			t.Fatalf("%s: the recycled event ran %d times, want 1", c.name, ran)
		}
	}
}

// TestCancelRunningEventIsNoop: an event cancelling itself from inside
// its own callback changes nothing, and its slot is still released once
// the callback returns.
func TestCancelRunningEventIsNoop(t *testing.T) {
	k := NewKernel()
	var self Event
	ran := 0
	self = atFunc(k, Second, func() {
		ran++
		self.Cancel()
		if self.time() != Second {
			t.Fatalf("Time = %v inside the callback after Cancel", self.time())
		}
		if self.Reschedule(2 * Second) {
			t.Fatal("Reschedule of the running event returned true")
		}
	})
	k.Run(MaxTime)
	if ran != 1 || k.pending() != 0 {
		t.Fatalf("ran %d times, pending %d; want 1 and 0", ran, k.pending())
	}
	if self.time() != -1 || len(k.free) != 1 || k.free[0] != self.idx {
		t.Fatalf("slot %d not released after the callback (free list %v)", self.idx, k.free)
	}
}

// TestPropertyHeapMatchesOracle runs the intrusive heap against a
// reference sort-by-(at, seq) oracle under random schedule, cancel,
// and reschedule interleavings, with tickers running beside them.
func TestPropertyHeapMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		k := NewKernel()
		type spec struct {
			at    Time
			order int // logical insertion order (reschedule refreshes it)
			live  bool
		}
		var specs []spec
		var events []Event
		var fired []int
		order := 0
		horizon := Time(1 + r.Intn(2000))
		for op := 0; op < 120; op++ {
			switch c := r.Intn(10); {
			case c <= 5 || len(specs) == 0: // schedule
				at := Time(r.Intn(int(horizon)))
				id := len(specs)
				specs = append(specs, spec{at: at, order: order, live: true})
				order++
				events = append(events, atFunc(k, at, func() { fired = append(fired, id) }))
			case c <= 7: // cancel a random event
				i := r.Intn(len(specs))
				specs[i].live = false
				events[i].Cancel()
			default: // reschedule a random event
				i := r.Intn(len(specs))
				at := Time(r.Intn(int(horizon)))
				if events[i].Reschedule(at) {
					specs[i] = spec{at: at, order: order, live: true}
					order++
				}
			}
		}
		// A few tickers, validated separately from the oracle ordering:
		// every event above lies before the horizon, so the run ends with
		// each ticker having fired once per period up to it.
		tickerFires := make([]int, 3)
		tickerWant := make([]int, 3)
		for ti := 0; ti < 3; ti++ {
			ti := ti
			period := Time(1 + r.Intn(200))
			tickerWant[ti] = int(horizon / period)
			k.Every(period, period, func(Time) { tickerFires[ti]++ })
		}
		k.Run(horizon)
		if k.pending() != len(tickerFires) {
			t.Fatalf("trial %d: Pending = %d after the horizon, want the %d tickers", trial, k.pending(), len(tickerFires))
		}

		var want []int
		idx := make([]int, 0, len(specs))
		for i, s := range specs {
			if s.live {
				idx = append(idx, i)
			}
		}
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := specs[idx[a]], specs[idx[b]]
			if sa.at != sb.at {
				return sa.at < sb.at
			}
			return sa.order < sb.order
		})
		want = idx
		if len(fired) != len(want) {
			t.Fatalf("trial %d: fired %d events, oracle wants %d", trial, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: fired[%d] = ev%d, oracle wants ev%d", trial, i, fired[i], want[i])
			}
		}
		for ti := range tickerFires {
			if tickerFires[ti] != tickerWant[ti] {
				t.Fatalf("trial %d: ticker %d fired %d, want %d", trial, ti, tickerFires[ti], tickerWant[ti])
			}
		}
	}
}

// TestSteadyStateSchedulingIsAllocationFree is the regression guard for
// the kernel's headline property: once the arena is warm, After+Run and
// the closure-free AfterCall path allocate nothing.
func TestSteadyStateSchedulingIsAllocationFree(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 256; i++ {
		k.AfterCall(Time(i)*Microsecond, nop, nil)
	}
	k.Run(k.Now() + Millisecond)

	if allocs := testing.AllocsPerRun(1000, func() {
		k.AfterCall(Microsecond, nop, nil)
		k.Run(k.Now() + 2*Microsecond)
	}); allocs != 0 {
		t.Fatalf("steady-state AfterCall+Run allocates %.1f/op, want 0", allocs)
	}

	// The far path: a timer parked in the wheel, one in the overflow, and
	// one moved seconds ahead by Reschedule, all drained.
	far := func() {
		k.AfterCall(10*Second, nop, nil)
		k.AfterCall(30*Second, nop, nil)
		k.AfterCall(Microsecond, nop, nil).Reschedule(k.Now() + 12*Second)
		k.Run(k.Now() + 31*Second)
	}
	far()
	if allocs := testing.AllocsPerRun(1000, far); allocs != 0 {
		t.Fatalf("steady-state far scheduling allocates %.1f/op, want 0", allocs)
	}
	if k.pending() != 0 {
		t.Fatalf("Pending = %d after draining the far timers", k.pending())
	}
}

// TestTickerReschedulingIsAllocationFree pins the in-place ticker
// re-arm: a warm ticker must sustain firing with zero allocations.
func TestTickerReschedulingIsAllocationFree(t *testing.T) {
	k := NewKernel()
	fires := 0
	k.Every(Microsecond, Microsecond, func(Time) { fires++ })
	k.Run(10 * Microsecond)
	if allocs := testing.AllocsPerRun(1000, func() {
		k.Run(k.Now() + Microsecond)
	}); allocs != 0 {
		t.Fatalf("ticker rescheduling allocates %.1f/op, want 0", allocs)
	}
	if fires == 0 {
		t.Fatal("ticker never fired")
	}
}
