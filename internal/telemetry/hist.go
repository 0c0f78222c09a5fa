// Package telemetry is the windowed application-metrics pipeline: a
// fixed-bin logarithmic latency histogram with an allocation-free
// record path, and a Recorder that rotates windows on the monitoring
// plane's 2-second sampling ticker, emitting per-window latency,
// throughput, concurrency, and session-churn series that share a time
// axis with the sysstat resource series.
//
// The paper's characterization is built on time-resolved measurement —
// 518 metrics sampled every 2 s — but application-level outcomes
// (response time, throughput, abandonment) were run-level scalars
// until this package: a flash crowd's queueing transient was invisible
// in a single run-mean. Recording into 2 s windows aligned with the
// collector makes "p95 over time" a first-class series the figures,
// the runner's cross-replication aggregation, and the transient
// analyses in internal/characterize can all consume.
//
// # Determinism contract
//
// Recording and rotation perform no random draws and no map
// iteration; given the same observation sequence the emitted series
// are byte-identical, so sweep output remains independent of runner
// worker count.
//
// # Allocation discipline
//
// Hist is a fixed-size value type: Record is pure arithmetic on
// embedded arrays (0 allocs/op, CI-gated via BenchmarkLatencyRecord).
// The Recorder's per-interaction bank takes each kind's Hist from a
// pool on that kind's first record, and its exact reservoir comes from
// a pool at full size; Recorder.Release hands both back. Recorder
// rotation appends one sample to each series; once ReserveWindows
// covers the run it is also allocation-free (BenchmarkWindowRotate).
package telemetry

import "math"

// Histogram binning. Bins are spaced geometrically: bin i covers
// [histMin*10^(i/binsPerDecade), histMin*10^((i+1)/binsPerDecade)).
// A quantile estimate returns the geometric midpoint of its bin, so
// the worst-case relative error is 10^(1/(2*binsPerDecade))-1 — just
// under 0.9% at 128 bins per decade — for any value inside the binned
// range.
const (
	// histMin is the smallest binnable latency in seconds (1 µs);
	// smaller observations land in the underflow bin and are reported
	// as the tracked exact minimum.
	histMin = 1e-6
	// binsPerDecade fixes the relative resolution.
	binsPerDecade = 128
	// histDecades spans 1 µs .. 1e6 s, far beyond any simulated
	// response time; larger observations land in the overflow bin and
	// are reported as the tracked exact maximum.
	histDecades = 12
	numBins     = binsPerDecade * histDecades
)

// invLog10 avoids a divide on the record path.
var invLog10 = 1 / math.Ln10

// Hist is a fixed-bin logarithmic latency histogram. The zero value is
// ready to use.
type Hist struct {
	// counts[0] is the underflow bin (v < histMin), counts[numBins+1]
	// the overflow bin; counts[1..numBins] are the log-spaced bins.
	counts [numBins + 2]uint64
	n      uint64
	sum    float64
	min    float64
	max    float64
	// lo/hi bound the touched bin range so Reset clears only what was
	// written — rotation cost tracks window activity, not table size.
	lo, hi int
}

// binIndex maps a latency in seconds to its bin.
func binIndex(v float64) int {
	if v < histMin {
		return 0
	}
	// log10(v/histMin) * binsPerDecade, computed via the natural log to
	// use the single-argument math.Log fast path.
	i := int(math.Log(v/histMin)*invLog10*binsPerDecade) + 1
	if i > numBins+1 {
		i = numBins + 1
	}
	return i
}

// binValue returns the representative latency of bin i: the geometric
// midpoint of its edges.
func binValue(i int) float64 {
	return histMin * math.Pow(10, (float64(i)-0.5)/binsPerDecade)
}

// Record adds one observation in seconds. It never allocates.
func (h *Hist) Record(v float64) { h.recordAt(v, binIndex(v)) }

// Count reports the number of recorded observations.
func (h *Hist) Count() uint64 { return h.n }

// Sum reports the exact sum of observations (seconds).
func (h *Hist) Sum() float64 { return h.sum }

// Mean reports the exact mean (seconds), or 0 when empty. The sum is
// accumulated in observation order, so for a single-threaded driver the
// mean is bit-identical to summing a retained slice in that order.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min and Max report the exact extremes (seconds), or 0 when empty.
func (h *Hist) Min() float64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max reports the exact maximum (seconds), or 0 when empty.
func (h *Hist) Max() float64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile estimates the q-quantile in seconds. It targets the same
// order statistic as the exact reservoir path (rank floor(q*(n-1))),
// returning the geometric midpoint of the bin holding that rank,
// clamped to the exact observed [min, max]. For in-range values the
// relative error is at most half a bin, 10^(1/(2*binsPerDecade)) - 1
// ≈ 0.9%; the underflow and overflow bins report the exact min and max.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.n-1))
	var cum uint64
	for i := h.lo; i <= h.hi; i++ {
		cum += h.counts[i]
		if cum > rank {
			switch i {
			case 0:
				return h.min
			case numBins + 1:
				return h.max
			}
			v := binValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// CountAbove reports how many observations exceeded v (seconds), at
// histogram resolution: whole bins above v's bin are counted, so the
// boundary is fuzzy by at most one bin (≈1.8%). The SLO-debt
// accounting in internal/characterize is built on this.
func (h *Hist) CountAbove(v float64) uint64 {
	if h.n == 0 || v >= h.max {
		return 0
	}
	if v < h.min {
		return h.n
	}
	start := binIndex(v) + 1
	if start < h.lo {
		start = h.lo
	}
	var cum uint64
	for i := start; i <= h.hi; i++ {
		cum += h.counts[i]
	}
	return cum
}

// ExcessAbove reports the summed exceedance sum(max(0, x-v)) in
// seconds over observations above v — the run's SLO debt against
// objective v — using each bin's representative value (midpoint,
// clamped to the exact extremes).
func (h *Hist) ExcessAbove(v float64) float64 {
	if h.n == 0 || v >= h.max {
		return 0
	}
	start := binIndex(v) + 1
	if start < h.lo {
		start = h.lo
	}
	var debt float64
	for i := start; i <= h.hi; i++ {
		if h.counts[i] == 0 {
			continue
		}
		bv := binValue(i)
		switch i {
		case 0:
			bv = h.min
		case numBins + 1:
			bv = h.max
		}
		if bv > h.max {
			bv = h.max
		}
		if bv <= v {
			continue
		}
		debt += float64(h.counts[i]) * (bv - v)
	}
	return debt
}

// Reset clears the histogram for the next window, touching only the
// bin range that was written.
func (h *Hist) Reset() {
	if h.n == 0 {
		return
	}
	for i := h.lo; i <= h.hi; i++ {
		h.counts[i] = 0
	}
	h.n, h.sum, h.min, h.max = 0, 0, 0, 0
	h.lo, h.hi = numBins+1, 0
}
