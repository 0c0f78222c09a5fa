package characterize

import (
	"fmt"
	"io"

	"vwchar/internal/experiment"
	"vwchar/internal/stats"
	"vwchar/internal/telemetry"
)

// CacheAnalysis is the cache-and-queue view of a run: how fast the
// cache warmed up, how hard hot-key expiries hit the DB (the
// thundering-herd miss storm), and how the write-behind broker absorbed
// and drained its backlog. It is the caching counterpart of
// AvailabilityAnalysis and reads the window series AnalyzeCache's
// companions leave in Result.Telemetry.
type CacheAnalysis struct {
	// Run-level cache accounting (zero without a Cache spec).
	HitRatio        float64
	Hits, Misses    uint64
	Stampedes       uint64
	StampedeFetches uint64
	Evictions       uint64
	Invalidations   uint64
	ColdRestarts    uint64

	// Warmup convergence: WarmupSec is when the per-window hit ratio
	// first reached ConvergenceFraction of the run-level ratio and the
	// cold cache stopped dominating DB load. Converged is false when the
	// run ended before that (or there was no cache).
	Converged bool
	WarmupSec float64

	// Miss-storm blast. PeakStampedes is the worst single window's
	// stampede count (herds forming on an expired hot key) and
	// PeakStampedeAtSec its window end. DBLoadSpikeFactor is the peak
	// windowed DB fall-through load (misses per second) relative to the
	// median window — the blast radius a hot-key expiry pushes onto the
	// DB tier; 1 means no storm.
	PeakStampedes     float64
	PeakStampedeAtSec float64
	DBLoadSpikeFactor float64

	// Write-behind accounting (zero without a Queue spec).
	Published    uint64
	Drained      uint64
	Overflows    uint64
	Redeliveries uint64
	PeakDepth    int
	FinalDepth   int
	MaxLagMs     float64

	// Backlog drain: BacklogDrainSec is the time from the peak-depth
	// window until the backlog first emptied again. DrainedByEnd is
	// false when the run ended with backlog still buffered.
	BacklogDrainSec float64
	DrainedByEnd    bool
}

// ConvergenceFraction is the share of the run-level hit ratio a window
// must reach for the cache to count as warmed up.
const ConvergenceFraction = 0.9

// AnalyzeCache computes the cache/queue analysis of a run. On a run
// without Cache or Queue specs everything reports zero (and Converged
// and DrainedByEnd report false/true vacuously).
func AnalyzeCache(r *experiment.Result) CacheAnalysis {
	a := CacheAnalysis{DrainedByEnd: true, DBLoadSpikeFactor: 1}
	if c := r.Cache; c != nil {
		a.HitRatio = c.HitRatio()
		a.Hits, a.Misses = c.Hits, c.Misses
		a.Stampedes = c.Stampedes
		a.StampedeFetches = c.StampedeFetches
		a.Evictions = c.Evictions
		a.Invalidations = c.Invalidations
		a.ColdRestarts = c.ColdRestarts
	}
	if q := r.Queue; q != nil {
		a.Published = q.Published
		a.Drained = q.Drained
		a.Overflows = q.Overflows
		a.Redeliveries = q.Redeliveries
		a.PeakDepth = q.PeakDepth
		a.FinalDepth = q.FinalDepth
		a.MaxLagMs = q.MaxLagMs
		a.DrainedByEnd = q.FinalDepth == 0
	}
	tel := r.Telemetry
	if hr := tel.ByName(telemetry.CacheHitRatio); hr != nil && r.Cache != nil {
		// Warmup: first window at ConvergenceFraction of the run ratio.
		target := ConvergenceFraction * a.HitRatio
		for i := 0; i < hr.Len(); i++ {
			if hr.At(i) >= target && target > 0 {
				a.Converged = true
				a.WarmupSec = float64(i+1) * hr.Interval
				break
			}
		}
		// Miss-storm blast radius: the peak windowed fall-through load
		// (misses/s = (1-hit ratio) x throughput) against the median
		// window, ignoring the warmup prefix where a cold cache misses
		// by construction.
		tput := tel.ByName(telemetry.Throughput)
		start := 0
		if a.Converged {
			start = int(a.WarmupSec/hr.Interval) - 1
		}
		var loads []float64
		for i := start; i < hr.Len() && i < tput.Len(); i++ {
			if tput.At(i) > 0 {
				loads = append(loads, (1-hr.At(i))*tput.At(i))
			}
		}
		if med := stats.Quantile(loads, 0.5); med > 0 {
			peak := 0.0
			for _, v := range loads {
				if v > peak {
					peak = v
				}
			}
			a.DBLoadSpikeFactor = peak / med
		}
	}
	if st := tel.ByName(telemetry.CacheStampedes); st != nil && r.Cache != nil {
		for i := 0; i < st.Len(); i++ {
			if v := st.At(i); v > a.PeakStampedes {
				a.PeakStampedes = v
				a.PeakStampedeAtSec = float64(i+1) * st.Interval
			}
		}
	}
	if qd := tel.ByName(telemetry.QueueDepth); qd != nil && r.Queue != nil && a.PeakDepth > 0 {
		peakIdx := -1
		for i := 0; i < qd.Len(); i++ {
			if int(qd.At(i)) >= a.PeakDepth {
				peakIdx = i
				break
			}
		}
		if peakIdx >= 0 {
			for j := peakIdx; j < qd.Len(); j++ {
				if qd.At(j) == 0 {
					a.BacklogDrainSec = float64(j-peakIdx) * qd.Interval
					break
				}
			}
		}
	}
	return a
}

// Write renders the analysis for reports and the cachetier example.
func (a CacheAnalysis) Write(w io.Writer) error {
	warm := "never converged"
	if a.Converged {
		warm = fmt.Sprintf("warmed up in %.0f s", a.WarmupSec)
	}
	storm := "no stampedes"
	if a.Stampedes > 0 {
		storm = fmt.Sprintf("%d stampede(s) (%d herd fetches), worst window %.0f at %.0f s",
			a.Stampedes, a.StampedeFetches, a.PeakStampedes, a.PeakStampedeAtSec)
	}
	if _, err := fmt.Fprintf(w,
		"cache: hit ratio %.3f (%d hits / %d misses), %s; %s\n"+
			"       DB load spike factor %.1fx; %d evictions, %d invalidations, %d cold restart(s)\n",
		a.HitRatio, a.Hits, a.Misses, warm, storm,
		a.DBLoadSpikeFactor, a.Evictions, a.Invalidations, a.ColdRestarts); err != nil {
		return err
	}
	if a.Published == 0 && a.Overflows == 0 {
		return nil
	}
	drain := fmt.Sprintf("backlog drained in %.0f s", a.BacklogDrainSec)
	if !a.DrainedByEnd {
		drain = fmt.Sprintf("%d writes STILL BUFFERED at run end", a.FinalDepth)
	}
	_, err := fmt.Fprintf(w,
		"queue: %d published / %d drained (%d overflows, %d redeliveries), peak depth %d, max lag %.0f ms; %s\n",
		a.Published, a.Drained, a.Overflows, a.Redeliveries, a.PeakDepth, a.MaxLagMs, drain)
	return err
}
