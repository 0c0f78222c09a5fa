package load

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"vwchar/internal/rng"
	"vwchar/internal/sim"
)

// TracePoint is one knot of a recorded rate trace: at TimeSeconds the
// arrival intensity was Rate sessions/s. Rates between knots are
// linearly interpolated; before the first knot the first rate holds,
// after the last knot the last rate holds.
type TracePoint struct {
	TimeSeconds float64
	Rate        float64
}

// validateTrace checks the invariants interpolation relies on.
func validateTrace(points []TracePoint) error {
	if len(points) == 0 {
		return fmt.Errorf("load: trace needs at least one (time, rate) point")
	}
	maxRate := 0.0
	for i, p := range points {
		if p.Rate < 0 {
			return fmt.Errorf("load: trace point %d has negative rate %v", i, p.Rate)
		}
		if p.TimeSeconds < 0 {
			return fmt.Errorf("load: trace point %d has negative time %v", i, p.TimeSeconds)
		}
		if i > 0 && p.TimeSeconds <= points[i-1].TimeSeconds {
			return fmt.Errorf("load: trace times must be strictly increasing (point %d: %v after %v)",
				i, p.TimeSeconds, points[i-1].TimeSeconds)
		}
		if p.Rate > maxRate {
			maxRate = p.Rate
		}
	}
	if maxRate == 0 {
		return fmt.Errorf("load: trace is all-zero rate")
	}
	return nil
}

// traceMeanRate integrates the piecewise-linear trace over its recorded
// span and divides by that span (single-point traces are constant).
func traceMeanRate(points []TracePoint) float64 {
	if len(points) == 0 {
		return 0
	}
	if len(points) == 1 {
		return points[0].Rate
	}
	area := 0.0
	for i := 1; i < len(points); i++ {
		dt := points[i].TimeSeconds - points[i-1].TimeSeconds
		area += dt * (points[i].Rate + points[i-1].Rate) / 2
	}
	return area / (points[len(points)-1].TimeSeconds - points[0].TimeSeconds)
}

// ParseTrace reads a CSV rate trace: one "time_seconds,rate" pair per
// line, in strictly increasing time order. Blank lines and lines
// starting with '#' are skipped; a header line of non-numeric fields is
// tolerated. This is the offline half of trace replay — the parsed
// points travel inside the Spec, so a stored experiment config replays
// without the original file.
func ParseTrace(r io.Reader) ([]TracePoint, error) {
	var points []TracePoint
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 2 {
			return nil, fmt.Errorf("load: trace line %d: want \"time,rate\", got %q", line, text)
		}
		t, err1 := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
		rate, err2 := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		if err1 != nil || err2 != nil {
			if line == 1 && len(points) == 0 {
				continue // header row
			}
			return nil, fmt.Errorf("load: trace line %d: non-numeric fields in %q", line, text)
		}
		points = append(points, TracePoint{TimeSeconds: t, Rate: rate})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("load: reading trace: %w", err)
	}
	if err := validateTrace(points); err != nil {
		return nil, err
	}
	return points, nil
}

// TraceArrivals replays a recorded rate trace as a nonhomogeneous
// Poisson process: intensity is linearly interpolated between knots and
// held flat beyond the ends. When the trace decays to a zero tail rate,
// the process ends (Next reports sim.MaxTime) instead of spinning on
// rejected candidates.
type TraceArrivals struct {
	points []TracePoint
	scale  float64
	max    float64
	// cursor remembers the last interpolation segment; arrivals move
	// forward in time, so lookup is amortized O(1) instead of a binary
	// search per thinning candidate.
	cursor int
}

// NewTraceArrivals builds a replayer over points with a rate multiplier
// (scale <= 0 means 1).
func NewTraceArrivals(points []TracePoint, scale float64) (*TraceArrivals, error) {
	if err := validateTrace(points); err != nil {
		return nil, err
	}
	if scale <= 0 {
		scale = 1
	}
	max := 0.0
	for _, p := range points {
		if p.Rate > max {
			max = p.Rate
		}
	}
	return &TraceArrivals{points: points, scale: scale, max: max * scale}, nil
}

// RateAt reports the interpolated intensity at t seconds; exported so
// tests can pin interpolation edge cases directly.
func (ta *TraceArrivals) RateAt(t float64) float64 {
	pts := ta.points
	if t <= pts[0].TimeSeconds {
		return pts[0].Rate * ta.scale
	}
	last := len(pts) - 1
	if t >= pts[last].TimeSeconds {
		return pts[last].Rate * ta.scale
	}
	// Resume from the cached segment; rewind if the caller went back.
	i := ta.cursor
	if i > last-1 || pts[i].TimeSeconds > t {
		i = 0
	}
	for pts[i+1].TimeSeconds < t {
		i++
	}
	ta.cursor = i
	a, b := pts[i], pts[i+1]
	frac := (t - a.TimeSeconds) / (b.TimeSeconds - a.TimeSeconds)
	return (a.Rate + (b.Rate-a.Rate)*frac) * ta.scale
}

func (ta *TraceArrivals) rateAt(t float64) float64 { return ta.RateAt(t) }

func (ta *TraceArrivals) maxRate() float64 { return ta.max }

// end reports the last knot's time and whether the tail rate is zero.
func (ta *TraceArrivals) end() (float64, bool) {
	last := ta.points[len(ta.points)-1]
	return last.TimeSeconds, last.Rate == 0
}

// Next implements Arrivals.
func (ta *TraceArrivals) Next(now sim.Time, r *rng.Stream) sim.Time {
	endAt, endsAtZero := ta.end()
	if endsAtZero && now.Sec() >= endAt {
		return sim.MaxTime
	}
	max := ta.max
	t := now.Sec()
	for {
		t += r.Exp(1 / max)
		if t >= maxSimSeconds || (endsAtZero && t >= endAt) {
			// Past the zero tail nothing can be accepted; report the
			// process ended rather than rejecting candidates forever.
			return sim.MaxTime
		}
		if r.Float64()*max <= ta.RateAt(t) {
			return sim.Seconds(t)
		}
	}
}
