package faults

import "fmt"

// HazardSpec configures the endogenous, load-coupled crash hazard.
// Unlike the pre-expanded Schedule components, the hazard must be
// evaluated in-run: at every telemetry window boundary each web
// replica whose utilization (resident requests / worker pool) is at or
// above UtilThreshold crashes with probability CrashProb. Determinism
// contract: one uniform draw is consumed per replica per window, in
// replica-index order, from the dedicated "fault-hazard" substream —
// whether or not the replica is armed — so the draw sequence is a pure
// function of (seed, topology, window count) and the run stays
// byte-identical across worker counts even though crashes feed back
// into load (crash -> retry storm -> higher load -> next crash).
type HazardSpec struct {
	// UtilThreshold arms the hazard for a replica whose resident
	// requests / workers is at or above it (e.g. 1.5 = queue half a
	// pool deep beyond the in-service requests).
	UtilThreshold float64
	// CrashProb is the per-window crash probability while armed, in
	// (0, 1].
	CrashProb float64
	// MTTRSeconds is the mean (exponential) repair time for hazard
	// crashes; <= 0 makes them permanent.
	MTTRSeconds float64
	// MaxCrashes caps total hazard crashes for the run; 0 = unlimited.
	MaxCrashes int
}

// Validate checks the hazard spec.
func (h *HazardSpec) Validate() error {
	if h == nil {
		return nil
	}
	if h.UtilThreshold <= 0 {
		return fmt.Errorf("faults: hazard: UtilThreshold must be > 0")
	}
	if h.CrashProb <= 0 || h.CrashProb > 1 {
		return fmt.Errorf("faults: hazard: CrashProb must be in (0,1], got %g", h.CrashProb)
	}
	if h.MTTRSeconds < 0 {
		return fmt.Errorf("faults: hazard: negative MTTRSeconds")
	}
	if h.MaxCrashes < 0 {
		return fmt.Errorf("faults: hazard: negative MaxCrashes")
	}
	return nil
}

// BrownoutSpec configures the overload controller: a degradation level
// that climbs one step per telemetry window while the cluster's mean
// per-replica utilization is at or above EnterUtil and falls one step
// while at or below ExitUtil. The serving path consults the level:
//
//	level 1   drops DropFraction of optional (read-only) requests at
//	          admission, via a deterministic error-diffusion
//	          accumulator (no randomness), and the LB fast-fails
//	          dispatches to replicas whose resident queue exceeds
//	          QueueBound instead of letting them pile up.
//	level >=2 drops all optional read work.
//
// Dropped requests complete fast with OutcomeDegraded — degraded but
// available, instead of queueing into metastable collapse.
type BrownoutSpec struct {
	// EnterUtil raises the level at a window boundary when mean
	// utilization (resident requests / workers, averaged over active
	// replicas) is at or above it.
	EnterUtil float64
	// ExitUtil lowers the level when utilization is at or below it
	// (default EnterUtil/2).
	ExitUtil float64
	// DropFraction of optional reads dropped at level 1 (default 0.5).
	DropFraction float64
	// MaxLevel caps escalation (default 2).
	MaxLevel int
	// QueueBound is the per-replica resident-request cap enforced
	// while degraded (level >= 1): a dispatch that would land on a
	// replica already holding this many is fast-failed as degraded.
	// Default 4 x the replica worker pool; < 0 disables the bound.
	QueueBound int
}

// WithDefaults returns a copy with unset knobs filled in.
func (b BrownoutSpec) WithDefaults() BrownoutSpec {
	if b.ExitUtil == 0 {
		b.ExitUtil = b.EnterUtil / 2
	}
	if b.DropFraction == 0 {
		b.DropFraction = 0.5
	}
	if b.MaxLevel == 0 {
		b.MaxLevel = 2
	}
	return b
}

// Validate checks the brownout spec.
func (b *BrownoutSpec) Validate() error {
	if b == nil {
		return nil
	}
	if b.EnterUtil <= 0 {
		return fmt.Errorf("faults: brownout: EnterUtil must be > 0")
	}
	if b.ExitUtil < 0 || b.ExitUtil > b.EnterUtil {
		return fmt.Errorf("faults: brownout: ExitUtil must be in [0, EnterUtil]")
	}
	if b.DropFraction < 0 || b.DropFraction > 1 {
		return fmt.Errorf("faults: brownout: DropFraction must be in [0,1]")
	}
	if b.MaxLevel < 0 {
		return fmt.Errorf("faults: brownout: negative MaxLevel")
	}
	return nil
}
