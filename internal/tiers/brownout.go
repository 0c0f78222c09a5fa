package tiers

import (
	"vwchar/internal/faults"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
)

// BrownoutStats is the overload controller's run accounting, carried
// on experiment.Result (non-nil whenever brownout was configured).
type BrownoutStats struct {
	// DegradedWindows counts telemetry windows spent at level >= 1.
	DegradedWindows int
	// PeakLevel is the highest degradation level reached.
	PeakLevel int
	// Dropped counts requests answered degraded: admission drops of
	// optional reads plus over-bound queue fast-fails.
	Dropped uint64
}

// Overload is the brownout controller: a degradation level driven by
// the cluster's mean per-replica utilization at window boundaries,
// consulted by the Guard at admission (drop optional read work first)
// and by the cluster's dispatch (fast-fail onto over-bound queues
// instead of feeding metastable queue growth). Level transitions and
// fractional drops are both deterministic — the drop fraction is
// realized by an error-diffusion accumulator, not a coin flip — so the
// controller adds no randomness to the run.
type Overload struct {
	web      *WebCluster
	enter    float64
	exit     float64
	dropFrac float64
	maxLevel int
	bound    int

	level int
	acc   float64

	Stats BrownoutStats
}

// NewOverload builds the controller for the cluster. The spec should
// already carry defaults (WithDefaults); QueueBound defaults to 4x the
// replica worker pool.
func NewOverload(web *WebCluster, spec faults.BrownoutSpec) *Overload {
	spec = spec.WithDefaults()
	bound := spec.QueueBound
	if bound == 0 && len(web.Replicas) > 0 {
		bound = 4 * web.Replicas[0].params.Workers
	}
	if bound < 0 {
		bound = 0 // disabled
	}
	return &Overload{
		web:      web,
		enter:    spec.EnterUtil,
		exit:     spec.ExitUtil,
		dropFrac: spec.DropFraction,
		maxLevel: spec.MaxLevel,
		bound:    bound,
	}
}

// Level reports the current degradation level (telemetry gauge
// source).
func (o *Overload) Level() int { return o.level }

// OnSample re-evaluates the degradation level at a window boundary:
// one step up while mean utilization is at or above EnterUtil, one
// step down while at or below ExitUtil.
func (o *Overload) OnSample(now sim.Time) {
	util := o.meanUtil()
	switch {
	case util >= o.enter:
		if o.level < o.maxLevel {
			o.level++
		}
	case util <= o.exit:
		if o.level > 0 {
			o.level--
		}
	}
	if o.level > o.Stats.PeakLevel {
		o.Stats.PeakLevel = o.level
	}
	if o.level > 0 {
		o.Stats.DegradedWindows++
	}
}

// meanUtil averages resident requests / workers over active replicas.
// With nothing active the cluster is maximally overloaded by
// definition.
func (o *Overload) meanUtil() float64 {
	var sum float64
	n := 0
	for i, r := range o.web.Replicas {
		if o.web.state[i] != ReplicaActive || r.params.Workers <= 0 {
			continue
		}
		sum += float64(r.QueueDepth()) / float64(r.params.Workers)
		n++
	}
	if n == 0 {
		return o.enter
	}
	return sum / float64(n)
}

// admitDrop decides whether to drop this request as optional work at
// the current level. Writes are never optional; level 1 drops
// DropFraction of reads via error diffusion, maxLevel drops them all.
func (o *Overload) admitDrop(res *rubis.Result) bool {
	if o.level == 0 || res == nil || res.IsWrite {
		return false
	}
	if o.level >= o.maxLevel {
		o.Stats.Dropped++
		return true
	}
	o.acc += o.dropFrac
	if o.acc >= 1 {
		o.acc--
		o.Stats.Dropped++
		return true
	}
	return false
}

// boundExceeded reports whether dispatching onto replica i would land
// on an over-bound queue while degraded (the LB-side consult).
func (o *Overload) boundExceeded(i int) bool {
	if o.level == 0 || o.bound <= 0 || i < 0 || i >= len(o.web.Replicas) {
		return false
	}
	if o.web.Replicas[i].QueueDepth() < o.bound {
		return false
	}
	o.Stats.Dropped++
	return true
}
