package sim

// Test-side inspection and control: production code neither counts the
// queue nor stops a ticker, but the drain checks and the kernel oracles
// need both.

// pending reports whether the handle still refers to a queued event
// (not yet fired, not cancelled).
func (e Event) pending() bool {
	k := e.k
	if k == nil {
		return false
	}
	ev := &k.arena[e.idx]
	return ev.gen == e.gen && ev.pos != posIdle
}

// pending reports the number of queued events.
func (k *Kernel) pending() int { return len(k.heap) + k.farN }

// stop cancels future firings; the ticker's pooled event is released at
// once, or after the callback when stop is called from inside it. A
// second stop is a no-op.
func (t *Ticker) stop() {
	t.ev.Cancel()
	t.ev = Event{}
}
