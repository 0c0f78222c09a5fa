package faults

import "fmt"

// ResilienceSpec configures the serving path's reaction to faults:
// per-call timeouts, bounded retries with exponential backoff and a
// retry budget, health-check-driven replica ejection/readmission, DB
// primary failover, and an optional circuit breaker. The zero spec is
// fully inert; experiment.Run only wraps the dispatch path in a guard
// when a non-nil spec is configured, so the no-fault configuration
// stays byte-identical to the golden sweep output.
type ResilienceSpec struct {
	// TimeoutMillis bounds each dispatch attempt; 0 disables timeouts.
	TimeoutMillis float64
	// Retries is the maximum number of re-dispatches after the first
	// attempt fails or times out.
	Retries int
	// BackoffMillis is the base of the exponential backoff before
	// retry k: backoff * 2^(k-1), plus deterministic jitter drawn from
	// a named rng substream (up to +50%).
	BackoffMillis float64
	// RetryBudget caps total retries at this fraction of issued
	// requests (e.g. 0.2 = at most 1 retry per 5 requests); values
	// above 1 deliberately allow retry storms for experiments.
	RetryBudget float64
	// HealthEverySeconds is the health-check interval for replica
	// ejection and failover detection.
	HealthEverySeconds float64
	// EjectAfterChecks ejects a web replica from the LB rotation after
	// this many consecutive failed health checks; it is readmitted on
	// the first healthy check.
	EjectAfterChecks int
	// FailoverDetectSeconds is how long the DB primary must be
	// continuously down before a read replica is promoted.
	FailoverDetectSeconds float64
	// Breaker enables circuit breaking / load shedding; nil disables.
	Breaker *BreakerSpec
	// Brownout enables the overload controller (graceful degradation
	// under load); nil disables.
	Brownout *BrownoutSpec
}

// BreakerSpec configures the circuit breaker: when the failure
// fraction over the last WindowRequests outcomes reaches
// ErrorThreshold, the breaker opens and dispatches are shed fast-fail
// for OpenMillis before probing again.
type BreakerSpec struct {
	ErrorThreshold float64
	WindowRequests int
	OpenMillis     float64
}

// WithDefaults returns a copy with unset knobs filled in.
func (r ResilienceSpec) WithDefaults() ResilienceSpec {
	if r.Retries > 0 {
		if r.BackoffMillis == 0 {
			r.BackoffMillis = 50
		}
		if r.RetryBudget == 0 {
			r.RetryBudget = 0.2
		}
	}
	if r.HealthEverySeconds == 0 {
		r.HealthEverySeconds = 1
	}
	if r.EjectAfterChecks == 0 {
		r.EjectAfterChecks = 3
	}
	if r.FailoverDetectSeconds == 0 {
		r.FailoverDetectSeconds = 5
	}
	if r.Breaker != nil {
		b := *r.Breaker
		if b.WindowRequests == 0 {
			b.WindowRequests = 64
		}
		if b.OpenMillis == 0 {
			b.OpenMillis = 1000
		}
		r.Breaker = &b
	}
	if r.Brownout != nil {
		b := r.Brownout.WithDefaults()
		r.Brownout = &b
	}
	return r
}

// Validate checks the spec. Call on the raw spec; defaults are applied
// separately by WithDefaults.
func (r *ResilienceSpec) Validate() error {
	if r == nil {
		return nil
	}
	if r.TimeoutMillis < 0 {
		return fmt.Errorf("faults: resilience: negative TimeoutMillis")
	}
	if r.Retries < 0 {
		return fmt.Errorf("faults: resilience: negative retries")
	}
	if r.BackoffMillis < 0 || r.RetryBudget < 0 {
		return fmt.Errorf("faults: resilience: negative BackoffMillis or RetryBudget")
	}
	if r.HealthEverySeconds < 0 || r.FailoverDetectSeconds < 0 {
		return fmt.Errorf("faults: resilience: negative health/failover interval")
	}
	if r.EjectAfterChecks < 0 {
		return fmt.Errorf("faults: resilience: negative EjectAfterChecks")
	}
	if b := r.Breaker; b != nil {
		if b.ErrorThreshold <= 0 || b.ErrorThreshold > 1 {
			return fmt.Errorf("faults: breaker: ErrorThreshold must be in (0,1], got %g", b.ErrorThreshold)
		}
		if b.WindowRequests < 0 || b.OpenMillis < 0 {
			return fmt.Errorf("faults: breaker: negative WindowRequests or OpenMillis")
		}
	}
	return r.Brownout.Validate()
}

// DefaultResilience is a sensible production-flavored spec: 1s
// timeouts, 2 retries with 100ms base backoff under a 25% budget,
// 1s health checks, 3-strike ejection, 5s failover detection.
func DefaultResilience() *ResilienceSpec {
	return &ResilienceSpec{
		TimeoutMillis:         1000,
		Retries:               2,
		BackoffMillis:         100,
		RetryBudget:           0.25,
		HealthEverySeconds:    1,
		EjectAfterChecks:      3,
		FailoverDetectSeconds: 5,
	}
}
