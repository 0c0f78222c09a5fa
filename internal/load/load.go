// Package load generates open-loop workload: it decouples *who arrives
// when* (an arrival process over session starts) from *what a session
// does* (the rubis client mix the tiers driver already replays).
//
// The closed-loop driver the paper uses holds the client population
// fixed — demand self-throttles as response times grow, which is the
// right model for the paper's figures but cannot express burstiness,
// diurnal intensity, flash crowds, or session churn. This package
// supplies those shapes as deterministic, per-stream-seeded arrival
// processes behind one small interface, plus the session-lifecycle
// parameters (ramp-in, geometric session length, abandonment on a
// response-time SLO) that the open-loop driver in internal/tiers
// consumes.
//
// # Determinism contract
//
// An arrival process draws only from the rng.Stream handed to Next, and
// every stochastic decision is made in a fixed order on the
// single-threaded sim kernel. A (Spec, seed) pair therefore yields a
// byte-identical run regardless of runner worker count — the same
// contract the closed-loop sweep already honors.
//
// # Allocation discipline
//
// Steady-state arrival generation is allocation-free: Next performs
// only floating-point draws and state updates, never allocating, so the
// open-loop driver's arrival re-arm loop (Arrivals.Next + Kernel.AtCall
// on a pooled event) runs at zero allocs per arrival.
package load

import (
	"fmt"
)

// Kind names an arrival-process family.
type Kind string

// The supported arrival processes.
const (
	// Poisson is a homogeneous Poisson process at Rate sessions/s.
	Poisson Kind = "poisson"
	// Bursty is a two-state MMPP: a base state at Rate and a burst state
	// at Rate*BurstFactor, with exponentially distributed dwell times.
	Bursty Kind = "bursty"
	// Diurnal modulates Rate sinusoidally with the given amplitude and
	// period (a compressed day/night cycle).
	Diurnal Kind = "diurnal"
	// Spike is a flash crowd: base Rate, then a linear ramp to
	// Rate*SpikeFactor held for a window and ramped back down.
	Spike Kind = "spike"
	// Trace replays a CSV (time,rate) trace with linear interpolation.
	Trace Kind = "trace"
)

// Default session-lifecycle parameters applied by Validate when the
// spec leaves them zero.
const (
	// DefaultSessionMean is the mean session length in interactions.
	DefaultSessionMean = 10.0
)

// Spec describes one open-loop workload: the arrival process plus the
// session-lifecycle parameters. The zero value is not runnable;
// construct via the catalog or fill Kind and Rate explicitly.
type Spec struct {
	// Kind selects the arrival family.
	Kind Kind
	// Rate is the base arrival intensity in sessions per second. For
	// Trace it is an optional multiplier on the trace's rates (0 or 1
	// replays the trace as recorded).
	Rate float64

	// BurstFactor multiplies Rate in the burst state (Bursty; > 1).
	BurstFactor float64
	// BaseDwell and BurstDwell are the mean seconds spent in the base
	// and burst states (Bursty).
	BaseDwell  float64
	BurstDwell float64

	// Amplitude is the relative modulation depth in [0,1) and
	// PeriodSeconds the cycle length (Diurnal).
	Amplitude     float64
	PeriodSeconds float64

	// SpikeAt is when the flash crowd begins (seconds), SpikeRamp the
	// linear ramp up/down time, SpikeHold the plateau length, and
	// SpikeFactor the peak multiplier on Rate (Spike).
	SpikeAt     float64
	SpikeRamp   float64
	SpikeHold   float64
	SpikeFactor float64

	// TracePoints is the inline (time, rate) trace (Trace). Specs are
	// self-contained values: callers resolve any file into points before
	// building the spec (see ParseTrace), so replaying a stored config
	// never touches the filesystem.
	TracePoints []TracePoint

	// SessionMean is the mean session length in interactions (geometric
	// distribution on {1,2,...}); 0 means DefaultSessionMean.
	SessionMean float64
	// AbandonAfterSeconds ends a session when a response takes longer
	// than this SLO; 0 disables abandonment.
	AbandonAfterSeconds float64
	// RampSeconds thins arrivals linearly from zero to full intensity
	// over this window, so runs start desynchronized instead of
	// slamming an idle system; 0 disables the ramp.
	RampSeconds float64
}

// Validate reports whether the spec describes a runnable workload.
func (s *Spec) Validate() error {
	switch s.Kind {
	case Poisson:
		if s.Rate <= 0 {
			return fmt.Errorf("load: %s needs rate > 0", s.Kind)
		}
	case Bursty:
		if s.Rate <= 0 {
			return fmt.Errorf("load: %s needs rate > 0", s.Kind)
		}
		if s.BurstFactor <= 1 {
			return fmt.Errorf("load: %s needs BurstFactor > 1 (got %v)", s.Kind, s.BurstFactor)
		}
		if s.BaseDwell <= 0 || s.BurstDwell <= 0 {
			return fmt.Errorf("load: %s needs positive base and burst dwell times", s.Kind)
		}
	case Diurnal:
		if s.Rate <= 0 {
			return fmt.Errorf("load: %s needs rate > 0", s.Kind)
		}
		if s.Amplitude < 0 || s.Amplitude >= 1 {
			return fmt.Errorf("load: %s needs amplitude in [0,1) (got %v)", s.Kind, s.Amplitude)
		}
		if s.PeriodSeconds <= 0 {
			return fmt.Errorf("load: %s needs PeriodSeconds > 0", s.Kind)
		}
	case Spike:
		if s.Rate <= 0 {
			return fmt.Errorf("load: %s needs rate > 0", s.Kind)
		}
		if s.SpikeFactor <= 1 {
			return fmt.Errorf("load: %s needs SpikeFactor > 1 (got %v)", s.Kind, s.SpikeFactor)
		}
		if s.SpikeAt < 0 || s.SpikeRamp < 0 || s.SpikeHold < 0 {
			return fmt.Errorf("load: %s needs non-negative spike timing", s.Kind)
		}
		if s.SpikeRamp == 0 && s.SpikeHold == 0 {
			return fmt.Errorf("load: %s needs a ramp or hold window", s.Kind)
		}
	case Trace:
		if s.Rate < 0 {
			return fmt.Errorf("load: %s rate multiplier must be >= 0", s.Kind)
		}
		if err := validateTrace(s.TracePoints); err != nil {
			return err
		}
	default:
		return fmt.Errorf("load: unknown arrival kind %q (want poisson, bursty, diurnal, spike or trace)", s.Kind)
	}
	if s.SessionMean < 0 || (s.SessionMean > 0 && s.SessionMean < 1) {
		return fmt.Errorf("load: SessionMean must be >= 1 (got %v)", s.SessionMean)
	}
	if s.AbandonAfterSeconds < 0 {
		return fmt.Errorf("load: AbandonAfterSeconds must be >= 0")
	}
	if s.RampSeconds < 0 {
		return fmt.Errorf("load: RampSeconds must be >= 0")
	}
	return nil
}

// EffectiveSessionMean reports the session-length mean with the default
// applied.
func (s *Spec) EffectiveSessionMean() float64 {
	if s.SessionMean <= 0 {
		return DefaultSessionMean
	}
	return s.SessionMean
}

// MeanRate reports the long-run average arrival intensity in sessions/s
// (ignoring the start-up ramp): the offered load a scenario would show
// on an infinitely long run. It is what the open/closed equivalence
// test and the catalog's documentation key off.
func (s *Spec) MeanRate() float64 {
	switch s.Kind {
	case Poisson:
		return s.Rate
	case Bursty:
		// Stationary mix of the two exponential-dwell states.
		pBurst := s.BurstDwell / (s.BaseDwell + s.BurstDwell)
		return s.Rate * (1 - pBurst + pBurst*s.BurstFactor)
	case Diurnal:
		// The sinusoid integrates to zero over a full period.
		return s.Rate
	case Spike:
		// A single transient: the long-run mean is the base rate.
		return s.Rate
	case Trace:
		return traceMeanRate(s.TracePoints) * s.traceScale()
	}
	return 0
}

// traceScale returns the multiplier applied to trace rates.
func (s *Spec) traceScale() float64 {
	if s.Kind == Trace && s.Rate > 0 {
		return s.Rate
	}
	return 1
}

// Build constructs the arrival process the spec describes. The returned
// process is stateful (MMPP phase, trace cursor) and must not be shared
// between drivers; call Build once per driver.
func (s *Spec) Build() (Arrivals, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case Poisson:
		return &PoissonArrivals{Rate: s.Rate}, nil
	case Bursty:
		return &MMPPArrivals{
			BaseRate:   s.Rate,
			BurstRate:  s.Rate * s.BurstFactor,
			BaseDwell:  s.BaseDwell,
			BurstDwell: s.BurstDwell,
		}, nil
	case Diurnal:
		return &DiurnalArrivals{Rate: s.Rate, Amplitude: s.Amplitude, Period: s.PeriodSeconds}, nil
	case Spike:
		return &SpikeArrivals{
			Rate:   s.Rate,
			Factor: s.SpikeFactor,
			At:     s.SpikeAt,
			Ramp:   s.SpikeRamp,
			Hold:   s.SpikeHold,
		}, nil
	case Trace:
		return NewTraceArrivals(s.TracePoints, s.traceScale())
	}
	return nil, fmt.Errorf("load: unknown arrival kind %q", s.Kind)
}
