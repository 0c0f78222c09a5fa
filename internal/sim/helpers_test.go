package sim

// Test-side inspection: production code neither reads a handle's fire
// time nor counts the queue, but the drain checks and the kernel oracles
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

// time reports when the event is scheduled to fire, or -1 when the
// handle is stale (the event already fired or was cancelled).
func (e Event) time() Time {
	k := e.k
	if k == nil {
		return -1
	}
	ev := &k.arena[e.idx]
	if ev.gen != e.gen {
		return -1
	}
	return ev.at
}

// pending reports the number of queued events.
func (k *Kernel) pending() int { return len(k.heap) + k.farN }
