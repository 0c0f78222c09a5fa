// Package sim provides a deterministic discrete-event simulation kernel.
//
// Time is virtual and measured in nanoseconds from the start of the
// simulation. Events are executed in timestamp order; ties are broken by
// insertion order so that a simulation with a fixed seed is fully
// reproducible across runs and platforms.
//
// The kernel is intentionally single-threaded: determinism matters more
// than parallelism for workload characterization, where an experiment must
// regenerate the exact same trace for a given seed.
//
// # Allocation discipline
//
// Steady-state scheduling performs zero heap allocations. Event structs
// live in a kernel-owned arena and are recycled through a free list, and
// the queue below never boxes through an interface. Callers that
// schedule in a hot loop should prefer the closure-free AtCall/AfterCall
// path, which passes a callback plus a context argument instead of
// allocating a capturing closure per event.
//
// # The two-level queue
//
// The queue is split at a horizon, the end of the current 2^22 ns
// (~4.2 ms) time bucket. Events before the horizon sit in a hand-rolled
// 4-ary min-heap whose (at, seq) keys are stored inline in the heap
// entries, so comparisons never chase an event pointer. Later events
// are parked in a hashed timing wheel of 4096 buckets (~17 s) or, beyond
// it, in an overflow list. Both are intrusive doubly linked lists
// threaded through the arena slots, so parking, moving and unlinking a
// far event is O(1) and allocates nothing. When the heap drains, the
// kernel moves the next non-empty bucket into it. The tier models keep
// about one think-time timer per emulated browser seconds ahead, while
// nearly every event fires within milliseconds; the split keeps those
// timers out of the heap that every pop sifts through. Since (at, seq)
// keys are unique, any exact priority queue pops the same sequence: the
// split changes speed, never order.
//
// # Event handle lifetime
//
// AtCall and AfterCall return an Event handle (a value, not a pointer).
// The handle stays valid until the event fires or is cancelled; Cancel
// takes a queued event out of the queue at once. Either way the kernel
// recycles the slot and bumps its generation counter, so a retained
// stale handle becomes inert: Cancel and Reschedule on it are no-ops,
// and Time reports -1. A handle can therefore be kept arbitrarily long
// without corrupting the pool or affecting whatever event later reuses
// the slot — the same handle/pin discipline the storage engine's buffer
// pool uses for frames.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Common durations in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// Seconds converts a floating-point number of seconds to a virtual Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Sec reports the time as a floating-point number of seconds.
func (t Time) Sec() float64 { return float64(t) / float64(Second) }

// String renders the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Sec()) }

// Callback is an event callback: the kernel passes back the arg given
// at scheduling time. Passing a package-level function and a
// pointer-typed arg does not allocate, so AtCall/AfterCall schedule
// without a closure per event.
type Callback func(arg any)

// event is one pooled event slot in the kernel arena. While the event
// is in the heap its (at, seq) ordering key is duplicated into the heap
// entry so that comparisons stay inside the heap slice; the slot keeps
// at for Event.Time and Reschedule, and keeps seq only while far.
type event struct {
	at   Time
	seq  uint64 // tie-break key while far; the heap entry holds it otherwise
	call Callback
	arg  any
	pos  int32 // heap index, posIdle, or posFar0-l while in far list l
	next int32 // far-list links, -1 at either end
	prev int32
	gen  uint32
}

// Queue positions event.pos takes besides a heap index (>= 0).
const (
	posIdle = -1 // not queued: free, or popped and firing
	posFar0 = -2 // far list l is encoded as posFar0 - l
)

// Default far-queue geometry: buckets of 2^wheelShift ns (~4.2 ms) and
// wheelSlots of them per wheel rotation (~17 s).
const (
	wheelShift = 22
	wheelSlots = 4096
)

// heapEntry is one node of the 4-ary min-heap: the packed (at, seq)
// comparison key plus the arena index it orders.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Event is a handle to a scheduled callback. The zero value refers to no
// event; all methods on it are inert. Handles are values: copy them
// freely, compare against the zero value to test "no event".
type Event struct {
	k   *Kernel
	idx int32
	gen uint32
}

// Cancel takes a queued event out of the queue and releases its slot at
// once, so every handle to it goes stale. Cancelling a stale handle —
// the event fired, was cancelled, or its slot now holds an unrelated
// event — or the event whose callback is running is a no-op.
func (e Event) Cancel() {
	k := e.k
	if k == nil {
		return
	}
	ev := &k.arena[e.idx]
	if ev.gen != e.gen || ev.pos == posIdle {
		return
	}
	k.dequeue(e.idx)
	k.release(e.idx)
}

// Reschedule moves a still-pending event to absolute time t, reusing its
// pooled slot. It returns false when the handle is stale or the event is
// mid-flight, in which case the caller must schedule a fresh event. The
// moved event is ordered as if newly scheduled: it fires after anything
// else already scheduled at t.
func (e Event) Reschedule(t Time) bool {
	k := e.k
	if k == nil {
		return false
	}
	ev := &k.arena[e.idx]
	if ev.gen != e.gen || ev.pos == posIdle {
		return false
	}
	if t < k.now {
		panic(fmt.Sprintf("sim: rescheduling at %v before now %v", t, k.now))
	}
	ev.at = t
	seq := k.seq
	k.seq++
	if i := ev.pos; i >= 0 && k.bucket(t) <= k.cur {
		k.heap[i].at = t
		k.heap[i].seq = seq
		k.heapFix(i)
		return true
	}
	// The move crosses the horizon or stays far: relink.
	k.dequeue(e.idx)
	k.enqueue(e.idx, t, seq)
	return true
}

// Kernel is the simulation event loop.
type Kernel struct {
	now   Time
	arena []event
	heap  []heapEntry
	free  []int32 // arena slots ready for reuse
	seq   uint64

	// The far queue. The heap holds exactly the queued events whose
	// bucket (at >> shift) is at most cur: the horizon is the end of
	// bucket cur. Wheel slot b&mask holds the events of bucket b for b in
	// (cur, last], where last ends the wheel's current rotation; the
	// final list holds the overflow beyond last.
	heads []int32 // far-list heads (wheel slots, then overflow), -1 when empty
	shift uint
	mask  int64
	cur   int64
	last  int64
	farN  int // events in the wheel and the overflow
	overN int // events in the overflow
	// firing is the arena index of the event whose callback is running,
	// -1 otherwise; requeueFiring (the ticker re-arm) targets it.
	firing int32
}

// NewKernel returns a kernel at virtual time zero with an empty queue.
func NewKernel() *Kernel { return newKernel(wheelShift, wheelSlots) }

// newKernel builds a kernel whose far queue has buckets of 2^shift ns
// and slots buckets per wheel rotation; slots must be a power of two.
// Tests use tiny geometries to drive every far-queue path.
func newKernel(shift uint, slots int) *Kernel {
	heads := make([]int32, slots+1)
	for i := range heads {
		heads[i] = -1
	}
	return &Kernel{firing: -1, heads: heads, shift: shift, mask: int64(slots - 1), last: int64(slots - 1)}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// schedule grabs a pooled slot, fills it, and queues it.
func (k *Kernel) schedule(t Time, call Callback, arg any) Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	var idx int32
	if n := len(k.free); n > 0 {
		idx = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.arena = append(k.arena, event{gen: 1})
		idx = int32(len(k.arena) - 1)
	}
	e := &k.arena[idx]
	e.at = t
	e.call = call
	e.arg = arg
	k.enqueue(idx, t, k.seq)
	k.seq++
	return Event{k: k, idx: idx, gen: e.gen}
}

// release returns an arena slot to the free list, invalidating every
// outstanding handle to it.
func (k *Kernel) release(idx int32) {
	e := &k.arena[idx]
	e.gen++
	e.call = nil
	e.arg = nil
	e.pos = posIdle
	k.free = append(k.free, idx)
}

// AtCall schedules fn(arg) at absolute virtual time t without allocating
// a closure: hot schedulers pass a package-level function plus the model
// object it operates on. Scheduling in the past (t < Now) panics: it
// always indicates a model bug, and silently reordering time would
// corrupt every downstream statistic.
func (k *Kernel) AtCall(t Time, fn Callback, arg any) Event {
	return k.schedule(t, fn, arg)
}

// AfterCall schedules fn(arg) to run d after the current time.
func (k *Kernel) AfterCall(d Time, fn Callback, arg any) Event {
	if d < 0 {
		d = 0
	}
	return k.schedule(k.now+d, fn, arg)
}

// Run executes events in order until the queue is empty or the next
// event is later than until. The clock is left at the time of the last
// executed event, or advanced to until when the queue drains early, so
// that samplers observing Now see a full window.
func (k *Kernel) Run(until Time) {
	for (len(k.heap) > 0 || k.refill()) && k.heap[0].at <= until {
		k.fire()
	}
	if k.now < until {
		k.now = until
	}
}

// Step executes the next event if one exists, returning true when an
// event ran. It is a deliberate test hook: production code drives the
// kernel with Run, and tests single-step it to observe the state
// between events.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 && !k.refill() {
		return false
	}
	k.fire()
	return true
}

// fire pops the heap's root, runs its callback and collects the slot,
// unless the callback requeued it in place (the ticker re-arm path).
// The callback fields are copied out first: scheduling inside the
// callback may grow the arena and move the slot.
func (k *Kernel) fire() {
	k.now = k.heap[0].at
	idx := k.heapPopRoot()
	e := &k.arena[idx]
	call, arg := e.call, e.arg
	prev := k.firing
	k.firing = idx
	call(arg)
	k.firing = prev
	if k.arena[idx].pos == posIdle {
		k.release(idx)
	}
}

// requeueFiring re-queues the currently firing event at time t, reusing
// its arena slot and keeping its handles valid. Only meaningful from
// inside an event callback.
func (k *Kernel) requeueFiring(t Time) {
	idx := k.firing
	if idx < 0 {
		panic("sim: requeue outside an event callback")
	}
	k.arena[idx].at = t
	k.enqueue(idx, t, k.seq)
	k.seq++
}

// Every schedules fn at start, start+period, start+2*period, ... for as
// long as the kernel runs; a ticker cannot be stopped. fn receives the
// firing time. Each period the ticker re-arms by mutating its pooled
// event in place rather than scheduling a fresh one, so a steady ticker
// performs zero allocations.
func (k *Kernel) Every(start, period Time, fn func(Time)) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	k.AtCall(start, tickerFire, &ticker{k: k, period: period, fn: fn})
}

// ticker is a repeating event created by Every.
type ticker struct {
	k      *Kernel
	period Time
	fn     func(Time)
}

func tickerFire(arg any) {
	t := arg.(*ticker)
	now := t.k.now
	t.fn(now)
	t.k.requeueFiring(now + t.period)
}

// --- far queue: hashed timing wheel plus overflow ----------------------
//
// Far lists are doubly linked through the arena slots' next/prev, with
// the list encoded in pos, so every far operation is O(1) and the only
// storage is the per-kernel heads array. Nothing walks a list except to
// drain it: refill empties one wheel slot into the heap and jump empties
// the overflow into a new rotation.

// bucket reports the far-queue bucket that time t falls in.
func (k *Kernel) bucket(t Time) int64 { return int64(t) >> k.shift }

// enqueue queues arena slot idx at t with tie-break seq: into the heap
// before the horizon, else into its wheel slot or the overflow.
func (k *Kernel) enqueue(idx int32, t Time, seq uint64) {
	b := k.bucket(t)
	if b <= k.cur {
		k.heapPush(heapEntry{at: t, seq: seq, idx: idx})
		return
	}
	k.arena[idx].seq = seq
	l := int32(len(k.heads) - 1)
	if b <= k.last {
		l = int32(b & k.mask)
	}
	k.farPush(idx, l)
}

// dequeue takes a queued event out of the heap or its far list.
func (k *Kernel) dequeue(idx int32) {
	if i := k.arena[idx].pos; i >= 0 {
		k.heapRemove(i)
	} else {
		k.farUnlink(idx)
	}
}

func (k *Kernel) farPush(idx, l int32) {
	e := &k.arena[idx]
	h := k.heads[l]
	e.pos = posFar0 - l
	e.prev = -1
	e.next = h
	if h >= 0 {
		k.arena[h].prev = idx
	}
	k.heads[l] = idx
	k.farN++
	if int(l) == len(k.heads)-1 {
		k.overN++
	}
}

func (k *Kernel) farUnlink(idx int32) {
	e := &k.arena[idx]
	l := posFar0 - e.pos
	if e.prev >= 0 {
		k.arena[e.prev].next = e.next
	} else {
		k.heads[l] = e.next
	}
	if e.next >= 0 {
		k.arena[e.next].prev = e.prev
	}
	e.pos = posIdle
	k.farN--
	if int(l) == len(k.heads)-1 {
		k.overN--
	}
}

// refill runs when the heap is empty: it advances the horizon to the
// next non-empty bucket and moves that bucket into the heap. It reports
// false when nothing is queued.
func (k *Kernel) refill() bool {
	if k.farN == 0 {
		return false
	}
	if k.farN == k.overN {
		k.jump()
	} else {
		// The wheel holds exactly buckets (cur, last], so a non-empty
		// slot lies ahead within this rotation.
		k.cur++
		for k.heads[k.cur&k.mask] < 0 {
			k.cur++
		}
	}
	k.drainSlot()
	return true
}

// jump runs when only the overflow remains: it starts the rotation
// holding the earliest overflow entry, spills every overflow entry that
// fits into the wheel, and sets cur to the earliest bucket.
func (k *Kernel) jump() {
	over := int32(len(k.heads) - 1)
	m := int64(-1)
	for i := k.heads[over]; i >= 0; i = k.arena[i].next {
		if b := k.bucket(k.arena[i].at); m < 0 || b < m {
			m = b
		}
	}
	k.cur = m
	k.last = m | k.mask
	for i := k.heads[over]; i >= 0; {
		next := k.arena[i].next
		if b := k.bucket(k.arena[i].at); b <= k.last {
			k.farUnlink(i)
			k.farPush(i, int32(b&k.mask))
		}
		i = next
	}
}

// drainSlot moves the wheel slot of bucket cur into the empty heap and
// heapifies it.
func (k *Kernel) drainSlot() {
	s := k.cur & k.mask
	for i := k.heads[s]; i >= 0; {
		e := &k.arena[i]
		e.pos = int32(len(k.heap))
		k.heap = append(k.heap, heapEntry{at: e.at, seq: e.seq, idx: i})
		k.farN--
		i = e.next
	}
	k.heads[s] = -1
	for i := (int32(len(k.heap)) - 2) >> 2; i >= 0; i-- {
		k.siftDown(i)
	}
}

// --- intrusive 4-ary min-heap -----------------------------------------
//
// Entries carry their (at, seq) key inline so comparisons never touch
// the arena; the arena's pos field is the back-pointer that makes
// removal and rescheduling O(log n). A 4-ary layout halves the tree
// height of a binary heap: pops do more comparisons per level but far
// fewer cache misses. The heap holds only the current bucket's events,
// so it stays shallow however many timers are parked far ahead.

func (k *Kernel) heapPush(en heapEntry) {
	i := int32(len(k.heap))
	k.heap = append(k.heap, en)
	k.arena[en.idx].pos = i
	k.siftUp(i)
}

// heapPopRoot removes and returns the arena index of the minimum entry.
func (k *Kernel) heapPopRoot() int32 {
	h := k.heap
	idx := h[0].idx
	k.arena[idx].pos = -1
	n := len(h) - 1
	last := h[n]
	k.heap = h[:n]
	if n > 0 {
		k.heap[0] = last
		k.arena[last.idx].pos = 0
		k.siftDown(0)
	}
	return idx
}

// heapRemove deletes the entry at heap position i.
func (k *Kernel) heapRemove(i int32) {
	h := k.heap
	k.arena[h[i].idx].pos = -1
	n := int32(len(h)) - 1
	last := h[n]
	k.heap = h[:n]
	if i < n {
		k.heap[i] = last
		k.arena[last.idx].pos = i
		k.heapFix(i)
	}
}

// heapFix restores heap order after the key at position i changed.
func (k *Kernel) heapFix(i int32) {
	idx := k.heap[i].idx
	k.siftUp(i)
	if k.arena[idx].pos == i {
		k.siftDown(i)
	}
}

func (k *Kernel) siftUp(i int32) {
	h := k.heap
	en := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(en, h[p]) {
			break
		}
		h[i] = h[p]
		k.arena[h[i].idx].pos = i
		i = p
	}
	h[i] = en
	k.arena[en.idx].pos = i
}

func (k *Kernel) siftDown(i int32) {
	h := k.heap
	n := int32(len(h))
	en := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[m]) {
				m = j
			}
		}
		if !entryLess(h[m], en) {
			break
		}
		h[i] = h[m]
		k.arena[h[i].idx].pos = i
		i = m
	}
	h[i] = en
	k.arena[en.idx].pos = i
}
