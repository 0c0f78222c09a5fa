package tiers

import (
	"vwchar/internal/faults"
	"vwchar/internal/rng"
	"vwchar/internal/sim"
)

// HazardCrash is one load-induced crash, logged for the cascade
// analysis.
type HazardCrash struct {
	At      sim.Time
	Replica int
	// Util is the replica utilization (resident requests / workers)
	// that armed the hazard.
	Util float64
	// RepairAt is the scheduled restore time; 0 when the crash is
	// permanent.
	RepairAt sim.Time
}

// HazardStats is the hazard's run accounting, carried on
// experiment.Result (non-nil whenever a hazard was configured, even if
// it never fired).
type HazardStats struct {
	// Crashes logs every load-induced crash in order.
	Crashes []HazardCrash
	// PeakRate is the largest per-window expected crash count (sum of
	// armed per-replica probabilities) seen during the run.
	PeakRate float64
}

// Hazard is the endogenous load-coupled crash process: at every
// telemetry window boundary it walks the web replicas in index order,
// consumes exactly one uniform draw per replica from its dedicated
// substream, and crashes replicas whose utilization is at or above the
// spec threshold with the spec probability. The fixed draw order and
// count are what keep the run byte-identical across worker counts even
// though crashes feed back into load (see faults.HazardSpec).
type Hazard struct {
	k    *sim.Kernel
	web  *WebCluster
	spec faults.HazardSpec
	st   *rng.Stream

	// rate is the armed probability mass of the last evaluated window
	// (the hazard_rate telemetry gauge).
	rate    float64
	repFree sim.FreeList[hazardRepair]

	Stats HazardStats
}

// hazardRepair is the pooled restore-timer payload.
type hazardRepair struct {
	h       *Hazard
	replica int
}

// NewHazard builds the hazard over the cluster's web replicas. st must
// be the dedicated "fault-hazard" substream of the experiment source.
func NewHazard(k *sim.Kernel, web *WebCluster, spec faults.HazardSpec, st *rng.Stream) *Hazard {
	return &Hazard{k: k, web: web, spec: spec, st: st}
}

// WindowRate reports the armed probability mass of the last evaluated
// window (telemetry gauge source).
func (h *Hazard) WindowRate() float64 { return h.rate }

// OnSample evaluates the hazard at a window boundary. It must be
// registered on the sysstat collector so every run sees the same
// window cadence.
func (h *Hazard) OnSample(now sim.Time) {
	h.rate = 0
	capped := h.spec.MaxCrashes > 0 && len(h.Stats.Crashes) >= h.spec.MaxCrashes
	for i, r := range h.web.Replicas {
		// One draw per replica per window, armed or not: the sequence
		// never depends on load, only acceptance does (thinning).
		u := h.st.Float64()
		if capped || h.web.state[i] != ReplicaActive || r.down || r.params.Workers <= 0 {
			continue
		}
		util := float64(r.QueueDepth()) / float64(r.params.Workers)
		if util < h.spec.UtilThreshold {
			continue
		}
		h.rate += h.spec.CrashProb
		if u >= h.spec.CrashProb {
			continue
		}
		var repairAt sim.Time
		if h.spec.MTTRSeconds > 0 {
			delay := sim.Seconds(h.st.Exp(h.spec.MTTRSeconds))
			repairAt = now + delay
			rep := h.repFree.Get()
			rep.h = h
			rep.replica = i
			h.k.AfterCall(delay, hazardRestore, rep)
		}
		h.Stats.Crashes = append(h.Stats.Crashes, HazardCrash{At: now, Replica: i, Util: util, RepairAt: repairAt})
		r.crash()
		if h.spec.MaxCrashes > 0 && len(h.Stats.Crashes) >= h.spec.MaxCrashes {
			capped = true
		}
	}
	if h.rate > h.Stats.PeakRate {
		h.Stats.PeakRate = h.rate
	}
}

// hazardRestore brings a hazard-crashed replica back.
func hazardRestore(arg any) {
	rep := arg.(*hazardRepair)
	h := rep.h
	i := rep.replica
	h.repFree.Put(rep)
	if i >= 0 && i < len(h.web.Replicas) {
		h.web.Replicas[i].restore()
	}
}
