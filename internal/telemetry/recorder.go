package telemetry

import (
	"sort"
	"sync"

	"vwchar/internal/timeseries"
)

// DefaultExactCap bounds the exact response-time reservoir a Recorder
// retains beside its run histogram. While total observations fit, the
// run-level quantile is exact (bit-identical to sorting every
// observation — the paper sweep's golden bytes depend on this); beyond
// it the reservoir stops growing and quantiles come from the run
// histogram within its ≈0.9% relative-error bound. 32768 float64s is
// 256 KB — an order of magnitude below the 200k-float reservoir it
// replaces, and fixed rather than proportional to run length.
const DefaultExactCap = 32768

// Series names: the CSV column contract shared by Result.Telemetry,
// the runner's cross-replication aggregation and every reader that
// looks a series up by name. NewRecorder registers the first eleven,
// the core series, in this order; the component that owns each of the
// rest registers it with Recorder.Counter or Recorder.Gauge.
const (
	LatencyMean    = "latency_mean_ms"
	LatencyP50     = "latency_p50_ms"
	LatencyP95     = "latency_p95_ms"
	LatencyP99     = "latency_p99_ms"
	Throughput     = "throughput_rps"
	Inflight       = "inflight"
	SessionStarts  = "sessions_started"
	SessionEnds    = "sessions_ended"
	LatencyReadP95 = "latency_read_p95_ms"
	LatencyRWP95   = "latency_rw_p95_ms"
	Abandoned      = "abandoned_sessions"
	Replicas       = "replicas"
	Timeouts       = "timeouts"
	Sheds          = "sheds"
	Failures       = "failures"
	Retries        = "retries"
	Availability   = "availability"
	Degraded       = "degraded"
	BrownoutLevel  = "brownout_level"
	HazardRate     = "hazard_rate"
	CacheHitRatio  = "cache_hit_ratio"
	CacheStampedes = "cache_stampedes"
	QueueDepth     = "queue_depth"
	QueueLag       = "queue_lag_ms"
)

// MaxKinds bounds the per-interaction histogram bank (RUBiS has 26
// kinds; the bank is fixed-size so the record path stays a bounds check
// plus an array index).
const MaxKinds = 32

// noHist is the empty histogram KindHist returns for a kind never
// recorded. It is shared and read-only.
var noHist Hist

// reservoir is the backing array of a Recorder's exact reservoir.
type reservoir [DefaultExactCap]float64

// reservoirs and kindHists recycle the run-scoped buffers of released
// recorders (Recorder.Release), so a sweep's runs stop allocating a
// 256 KB reservoir and a ~12 KB histogram per recorded kind each. A
// buffer is reset before it is parked: only its memory is reused, never
// its contents.
var (
	reservoirs freeList[reservoir]
	kindHists  freeList[Hist]
)

// freeList is a LIFO list of parked buffers. It holds at most as many
// as were ever checked out at once, so it needs no cap. It is not a
// sync.Pool because a pool is emptied by every GC cycle, and a sweep
// collects many times between one run's release and the next run's
// checkout (rng's stream free list makes the same choice).
type freeList[T any] struct {
	sync.Mutex
	list []*T
}

// get returns a parked buffer, or a new zero one when none is parked.
func (l *freeList[T]) get() *T {
	l.Lock()
	defer l.Unlock()
	n := len(l.list)
	if n == 0 {
		return new(T)
	}
	x := l.list[n-1]
	l.list[n-1] = nil
	l.list = l.list[:n-1]
	return x
}

// put parks x, which its caller has reset and must not use afterwards.
func (l *freeList[T]) put(x *T) {
	l.Lock()
	l.list = append(l.list, x)
	l.Unlock()
}

// Recorder accumulates response-time observations and closes one
// window per Rotate call, appending one sample to every registered
// series. The caller rotates it from the sysstat collector's sampling
// ticker, which is what aligns the emitted series with the resource
// series sample for sample.
type Recorder struct {
	windowSec float64

	// win is the current window's histogram; run is the whole-run
	// histogram, recorded in the same pass (one bin computation shared by
	// every increment).
	win, run Hist

	// winClass attributes the window's observations by interaction
	// class: index 0 is read-only, 1 is read-write.
	winClass [2]Hist

	// abandon is the run-level histogram of responses whose latency
	// drove their session away (a subset of run).
	abandon Hist

	// kind is the per-interaction run-level histogram bank, indexed by
	// the dense kind index stamped into every rubis.Result. Each Hist
	// is taken from kindHists on its kind's first record: a run records
	// only the kinds its mix reaches.
	kind [MaxKinds]*Hist

	// exact is the bounded exact reservoir backing small-count
	// run-level quantiles, a slice of a pooled reservoir; sorted tracks
	// whether it is currently in ascending order (Quantile sorts it in
	// place and records resume appending, dirtying it again).
	exact  []float64
	sorted bool

	// starts, ends and abandons are cumulative, differenced per window
	// by the core Counters; inflight is the gauge Rotate was handed.
	starts, ends, abandons uint64
	inflight               int

	// samples[i] is the source of series.All()[i]. The set is its own
	// allocation, so a reader holding it does not hold the recorder.
	samples []func() float64
	series  *timeseries.Set
}

// NewRecorder builds a recorder with the given window length in
// seconds. The exact reservoir comes from a pool at its full size, so
// steady-state recording never allocates; Release hands it back. The
// core series are registered here; components append theirs with
// Counter and Gauge, then ReserveWindows sizes every series for the
// run.
func NewRecorder(windowSec float64) *Recorder {
	r := &Recorder{windowSec: windowSec, series: new(timeseries.Set)}
	r.exact = reservoirs.get()[:0]
	ms := func(h *Hist, q float64) func() float64 {
		return func() float64 { return h.Quantile(q) * 1e3 }
	}
	r.Gauge(LatencyMean, "ms", func() float64 { return r.win.Mean() * 1e3 })
	r.Gauge(LatencyP50, "ms", ms(&r.win, 0.50))
	r.Gauge(LatencyP95, "ms", ms(&r.win, 0.95))
	r.Gauge(LatencyP99, "ms", ms(&r.win, 0.99))
	r.Gauge(Throughput, "req/s", func() float64 { return float64(r.win.Count()) / r.windowSec })
	r.Gauge(Inflight, "requests", func() float64 { return float64(r.inflight) })
	r.Counter(SessionStarts, "sessions/window", func() uint64 { return r.starts })
	r.Counter(SessionEnds, "sessions/window", func() uint64 { return r.ends })
	r.Gauge(LatencyReadP95, "ms", ms(&r.winClass[0], 0.95))
	r.Gauge(LatencyRWP95, "ms", ms(&r.winClass[1], 0.95))
	r.Counter(Abandoned, "sessions/window", func() uint64 { return r.abandons })
	return r
}

// Gauge registers a series sampled from fn at each window boundary.
// Register before ReserveWindows. A duplicate name panics (in
// timeseries.Set.Add), and so does registering after the first Rotate,
// since the new series would be misaligned with the others.
func (r *Recorder) Gauge(name, unit string, fn func() float64) {
	if r.series.Windows() > 0 {
		panic("telemetry: series " + name + " registered after the first window closed")
	}
	r.series.Add(&timeseries.Series{Name: name, Unit: unit, Interval: r.windowSec})
	r.samples = append(r.samples, fn)
}

// Counter registers a series holding the per-window increase of the
// cumulative source fn, differenced at each window boundary. Gauge's
// registration rules apply.
func (r *Recorder) Counter(name, unit string, fn func() uint64) {
	var last uint64
	r.Gauge(name, unit, func() float64 {
		cum := fn()
		d := cum - last
		last = cum
		return float64(d)
	})
}

// WindowShare builds a Gauge source sampling the per-window share of
// part in part+rest, both cumulative sources differenced at each
// boundary; a window in which neither moved samples idle.
func WindowShare(part, rest func() uint64, idle float64) func() float64 {
	var lastPart, lastRest uint64
	return func() float64 {
		p, q := part(), rest()
		dp, dq := p-lastPart, q-lastRest
		lastPart, lastRest = p, q
		if dp+dq == 0 {
			return idle
		}
		return float64(dp) / float64(dp+dq)
	}
}

// RecordKind adds one response-time observation in seconds, attributed
// to its interaction class (isWrite selects read-write) and its
// interaction: kind is the dense rubis kind index (out-of-range skips
// the bank, so callers without attribution pass -1). Allocation-free
// and one logarithm per observation: the first record of each kind
// takes its histogram from a pool, and every later one touches no
// pool. Recording after Release panics.
func (r *Recorder) RecordKind(rt float64, isWrite bool, kind int) {
	i := binIndex(rt)
	r.win.recordAt(rt, i)
	r.run.recordAt(rt, i)
	cls := 0
	if isWrite {
		cls = 1
	}
	r.winClass[cls].recordAt(rt, i)
	if kind >= 0 && kind < MaxKinds {
		h := r.kind[kind]
		if h == nil {
			h = kindHists.get()
			r.kind[kind] = h
		}
		h.recordAt(rt, i)
	}
	if n := len(r.exact); n < DefaultExactCap {
		// Reslicing, not append: a released recorder's nil reservoir
		// panics here instead of quietly growing a new one.
		r.exact = r.exact[:n+1]
		r.exact[n] = rt
		r.sorted = false
	}
}

// Release hands the reservoir and the per-kind histograms back to
// their pools, reset, and clears the recorder's references to them, so
// recording afterwards panics. The window series are not pooled: a
// reader may keep Series after Release. Everything else read from the
// recorder (quantiles, histograms) must be read, or copied, first.
func (r *Recorder) Release() {
	reservoirs.put((*reservoir)(r.exact[:DefaultExactCap]))
	r.exact, r.sorted = nil, false
	for i, h := range r.kind {
		if h != nil {
			h.Reset()
			h.lo, h.hi = 0, 0
			kindHists.put(h)
			r.kind[i] = nil
		}
	}
}

// NoteAbandon records the response time (seconds) that drove a session
// away. The observation is already in the main histograms via Record;
// this attributes it to demand lost rather than served.
func (r *Recorder) NoteAbandon(rt float64) {
	r.abandon.Record(rt)
	r.abandons++
}

// recordAt is Record with the bin precomputed, so the recorder pays
// one logarithm per observation for its two histograms.
func (h *Hist) recordAt(v float64, i int) {
	if h.n == 0 {
		h.min, h.max = v, v
		h.lo, h.hi = i, i
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
		if i < h.lo {
			h.lo = i
		}
		if i > h.hi {
			h.hi = i
		}
	}
	h.n++
	h.sum += v
	h.counts[i]++
}

// NoteStart tallies one session admitted.
func (r *Recorder) NoteStart() { r.starts++ }

// NoteEnd tallies one session ended (finished or abandoned).
func (r *Recorder) NoteEnd() { r.ends++ }

// Rotate closes the current window: every registered series samples
// once, in registration order, with inflight feeding the core
// in-flight gauge. The window histograms then reset for the next
// window.
func (r *Recorder) Rotate(inflight int) {
	r.inflight = inflight
	all := r.series.All()
	for i, sample := range r.samples {
		all[i].Append(sample())
	}
	r.win.Reset()
	r.winClass[0].Reset()
	r.winClass[1].Reset()
}

// ReserveWindows grows every series' capacity to hold n windows, so
// rotation within that horizon never allocates. experiment.Run calls
// it with the run's duration-derived window count before the kernel
// starts.
func (r *Recorder) ReserveWindows(n int) {
	for _, s := range r.series.All() {
		if cap(s.Values)-len(s.Values) < n {
			grown := make([]float64, len(s.Values), len(s.Values)+n)
			copy(grown, s.Values)
			s.Values = grown
		}
	}
}

// Series exposes the emitted per-window series, one sample per closed
// window each, sharing the resource series' 2-second time axis.
func (r *Recorder) Series() *timeseries.Set { return r.series }

// Mean reports the exact run-level mean response time in seconds.
func (r *Recorder) Mean() float64 { return r.run.Mean() }

// Quantile reports the run-level q-quantile in seconds. While every
// observation still fits the exact reservoir it reproduces the
// sort-and-index quantile of the reservoir it replaced bit for bit
// (rank floor(q*(n-1)), no interpolation), sorting in place at most
// once per batch of records; beyond the cap it falls back to the
// run histogram, within its ≈0.9% relative-error bound.
func (r *Recorder) Quantile(q float64) float64 {
	n := r.run.Count()
	if n == 0 {
		return 0
	}
	if n > uint64(len(r.exact)) {
		return r.run.Quantile(q)
	}
	if !r.sorted {
		sort.Float64s(r.exact)
		r.sorted = true
	}
	if q <= 0 {
		return r.exact[0]
	}
	if q >= 1 {
		return r.exact[len(r.exact)-1]
	}
	return r.exact[int(q*float64(len(r.exact)-1))]
}

// RunHist exposes the run-level histogram over every served response.
func (r *Recorder) RunHist() *Hist { return &r.run }

// AbandonedHist exposes the run-level histogram of responses that
// drove their session away — the "driven away" half of SLO-debt
// accounting (RunHist minus this is demand served, however slowly).
func (r *Recorder) AbandonedHist() *Hist { return &r.abandon }

// KindHist exposes the run-level histogram for one dense interaction
// kind index, or nil when out of range. A kind never recorded reads as
// a shared empty histogram, which callers must not modify.
func (r *Recorder) KindHist(kind int) *Hist {
	if kind < 0 || kind >= MaxKinds {
		return nil
	}
	if h := r.kind[kind]; h != nil {
		return h
	}
	return &noHist
}
