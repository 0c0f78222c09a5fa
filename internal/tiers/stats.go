package tiers

import (
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/sysstat"
	"vwchar/internal/telemetry"
)

// LoadGen is the driver contract experiment.Run consumes: the
// closed-loop Driver and the open-loop OpenDriver both satisfy it, so
// the deployment assembly is identical whichever workload shape drives
// it.
type LoadGen interface {
	// Start schedules the generator's first events.
	Start()
	// Totals reports completed and failed interactions so far.
	Totals() (completed, errors uint64)
	// WriteFraction reports the share of completed interactions that
	// were read-write.
	WriteFraction() float64
	// MeanResponseTime reports the mean observed response time (s).
	MeanResponseTime() float64
	// ResponseTimeQuantile reports the q-quantile response time (s).
	ResponseTimeQuantile(q float64) float64
	// InteractionCounts returns a copy of the per-interaction tally.
	InteractionCounts() map[rubis.Interaction]uint64
	// RotateWindow closes the current telemetry window; experiment.Run
	// hooks it onto the sysstat collector's sampling ticker so the
	// latency series share the resource series' time axis.
	RotateWindow(now sim.Time)
	// Recorder exposes the driver's telemetry recorder: its window
	// series, where components register theirs before ReserveWindows,
	// and its run-level histograms.
	Recorder() *telemetry.Recorder
	// Outcomes reports the driver's cumulative request accounting.
	Outcomes() Outcomes
}

// Outcomes splits a driver's issued requests by outcome. Issued counts
// requests dispatched into the serving path; the remainder (Issued -
// Served - TimedOut - Shed - Failed - Degraded) is still in flight.
type Outcomes struct {
	Issued, Served, TimedOut, Shed, Failed, Degraded uint64
}

// driverStats is the outcome accounting shared by the closed-loop and
// open-loop drivers. Embedding keeps the public Completed/Errors fields
// both drivers expose and guarantees the two report identically shaped
// results. Response times flow into a telemetry.Recorder: a windowed
// log-histogram pipeline whose run-level mean and quantiles replace the
// run-long []float64 reservoir this struct used to carry (exact while
// observations fit a bounded spill, histogram-accurate beyond it).
type driverStats struct {
	// Completed counts finished interactions; Errors counts failed ones.
	Completed uint64
	Errors    uint64

	// Issued counts requests dispatched into the serving path;
	// TimedOut/Shed/Failed/Degraded split the abnormal outcomes
	// (Completed covers the served remainder). All zero on fault-free
	// runs.
	Issued   uint64
	TimedOut uint64
	Shed     uint64
	Failed   uint64
	Degraded uint64

	rec      *telemetry.Recorder
	inflight int
	byKind   map[rubis.Interaction]uint64
	writes   uint64
}

// initStats prepares the tally map and the telemetry recorder, with
// windows matching the sysstat sampling period; prealloc reserves the
// recorder's exact reservoir up front so steady-state observation never
// allocates (the open-loop driver's zero-alloc discipline). The series
// themselves are sized later, when experiment.Run calls the recorder's
// ReserveWindows with the duration-derived window count.
func (s *driverStats) initStats(prealloc bool) {
	s.byKind = make(map[rubis.Interaction]uint64)
	s.rec = telemetry.NewRecorder(sysstat.SampleInterval.Sec(), 0, prealloc)
}

// observeSent marks one request leaving the client, for the in-flight
// concurrency gauge and the issued tally.
func (s *driverStats) observeSent() {
	s.inflight++
	s.Issued++
}

// observe records one completed interaction's response time in
// seconds, attributed to its read or read-write class and its dense
// interaction kind.
func (s *driverStats) observe(rt float64, isWrite bool, kind int) {
	s.Completed++
	s.inflight--
	s.rec.RecordKind(rt, isWrite, kind)
}

// observeFault records one request that ended abnormally: it counts
// toward the outcome split (and through it the per-window fault
// series), but its turnaround never enters the latency pipeline (an
// error response's sub-millisecond "latency" would poison the served
// distribution).
func (s *driverStats) observeFault(o Outcome) {
	s.inflight--
	switch o {
	case OutcomeTimedOut:
		s.TimedOut++
	case OutcomeShed:
		s.Shed++
	case OutcomeDegraded:
		s.Degraded++
	default:
		s.Failed++
	}
}

// Outcomes implements LoadGen.
func (s *driverStats) Outcomes() Outcomes {
	return Outcomes{s.Issued, s.Completed, s.TimedOut, s.Shed, s.Failed, s.Degraded}
}

// noteInteraction tallies one successfully executed interaction.
func (s *driverStats) noteInteraction(kind rubis.Interaction, isWrite bool) {
	s.byKind[kind]++
	if isWrite {
		s.writes++
	}
}

// RotateWindow implements LoadGen: it closes the current telemetry
// window, sampling the in-flight gauge at the boundary.
func (s *driverStats) RotateWindow(now sim.Time) { s.rec.Rotate(s.inflight) }

// Recorder implements LoadGen.
func (s *driverStats) Recorder() *telemetry.Recorder { return s.rec }

// Totals implements LoadGen.
func (s *driverStats) Totals() (completed, errors uint64) {
	return s.Completed, s.Errors
}

// WriteFraction reports the share of completed interactions that were
// read-write.
func (s *driverStats) WriteFraction() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.writes) / float64(s.Completed)
}

// InteractionCounts returns a copy of the per-interaction tally.
func (s *driverStats) InteractionCounts() map[rubis.Interaction]uint64 {
	out := make(map[rubis.Interaction]uint64, len(s.byKind))
	for k, v := range s.byKind {
		out[k] = v
	}
	return out
}

// ResponseTimeQuantile reports the q-quantile of observed response
// times in seconds: exact (bit-identical to the replaced sort-the-
// reservoir computation) while the run fits the recorder's bounded
// exact spill, merged-histogram accurate beyond it.
func (s *driverStats) ResponseTimeQuantile(q float64) float64 {
	return s.rec.Quantile(q)
}

// MeanResponseTime reports the mean response time in seconds, exact
// over every observation via the recorder's running sum.
func (s *driverStats) MeanResponseTime() float64 {
	return s.rec.Mean()
}
