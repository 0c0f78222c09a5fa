package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if got := (2 * Second).Sec(); got != 2.0 {
		t.Fatalf("Sec = %v", got)
	}
	if s := (1500 * Millisecond).String(); s != "1.500s" {
		t.Fatalf("String = %q", s)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []Time
	for _, at := range []Time{5 * Second, Second, 3 * Second, 2 * Second} {
		at := at
		atFunc(k, at, func() { order = append(order, at) })
	}
	k.Run(MaxTime)
	want := []Time{Second, 2 * Second, 3 * Second, 5 * Second}
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %v, want %v", i, order[i], want[i])
		}
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		atFunc(k, Second, func() { order = append(order, i) })
	}
	k.Run(MaxTime)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order %v not FIFO", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	atFunc(k, Second, func() {})
	k.Run(MaxTime)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	atFunc(k, 0, func() {})
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := atFunc(k, Second, func() { fired = true })
	if !e.pending() {
		t.Fatal("pending() = false for a queued event")
	}
	e.Cancel()
	if e.pending() {
		t.Fatal("pending() = true after Cancel")
	}
	k.Run(5 * Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.pending() {
		t.Fatal("pending() = true after the run drained")
	}
	// Cancelling a stale handle must not disturb whatever event now
	// occupies the recycled slot.
	e.Cancel()
	refired := false
	atFunc(k, 10*Second, func() { refired = true })
	e.Cancel()
	k.Run(20 * Second)
	if !refired {
		t.Fatal("stale Cancel killed a recycled event")
	}
}

func TestRunUntilStopsBeforeLaterEvents(t *testing.T) {
	k := NewKernel()
	count := 0
	atFunc(k, Second, func() { count++ })
	atFunc(k, 10*Second, func() { count++ })
	k.Run(5 * Second)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if k.Now() != 5*Second {
		t.Fatalf("Now = %v, want 5s (clock advances to until)", k.Now())
	}
	k.Run(MaxTime)
	if count != 2 {
		t.Fatalf("count = %d after draining, want 2", count)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	var hits []Time
	atFunc(k, Second, func() {
		hits = append(hits, k.Now())
		afterFunc(k, Second, func() { hits = append(hits, k.Now()) })
	})
	k.Run(MaxTime)
	if len(hits) != 2 || hits[0] != Second || hits[1] != 2*Second {
		t.Fatalf("hits = %v", hits)
	}
}

func TestStep(t *testing.T) {
	k := NewKernel()
	count := 0
	atFunc(k, Second, func() { count++ })
	atFunc(k, 2*Second, func() { count++ })
	if !k.Step() || count != 1 {
		t.Fatalf("first Step: count=%d", count)
	}
	if !k.Step() || count != 2 {
		t.Fatalf("second Step: count=%d", count)
	}
	if k.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel()
	var fires []Time
	k.Every(2*Second, 2*Second, func(at Time) { fires = append(fires, at) })
	k.Run(10 * Second)
	if len(fires) != 5 {
		t.Fatalf("fired %d times by 10s, want 5", len(fires))
	}
	k.Run(21 * Second)
	if len(fires) != 10 {
		t.Fatalf("fired %d times by 21s, want 10", len(fires))
	}
	for i, at := range fires {
		if want := Time(i+1) * 2 * Second; at != want {
			t.Fatalf("fire %d at %v, want %v", i, at, want)
		}
	}
	if k.pending() != 1 {
		t.Fatalf("Pending = %d, want the ticker's one re-armed event", k.pending())
	}
}

// Property: for any set of random timestamps, execution order is the
// sorted order of the timestamps.
func TestPropertyExecutionOrderSorted(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		k := NewKernel()
		var got []Time
		want := make([]Time, 0, len(raw))
		for _, r := range raw {
			at := Time(r)
			want = append(want, at)
			atFunc(k, at, func() { got = append(got, at) })
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		k.Run(MaxTime)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock never moves backwards during any run.
func TestPropertyMonotonicClock(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	k := NewKernel()
	last := Time(-1)
	ran := 0
	var schedule func()
	schedule = func() {
		ran++
		now := k.Now()
		if now < last {
			t.Fatalf("clock went backwards: %v < %v", now, last)
		}
		last = now
		if ran < 5000 {
			afterFunc(k, Time(r.Intn(1000)), schedule)
			if r.Intn(3) == 0 {
				afterFunc(k, Time(r.Intn(1000)), schedule)
			}
		}
	}
	atFunc(k, 0, schedule)
	k.Run(MaxTime)
	if ran < 5000 {
		t.Fatalf("ran only %d events", ran)
	}
}
