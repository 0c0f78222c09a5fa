// Package characterize computes the paper's analyses over collected
// traces: per-resource tier comparisons (§4.1), VM-aggregate versus
// hypervisor ratios (§4.1), virtualized versus non-virtualized
// comparisons (§4.2), inter-tier lag, RAM jump detection, and disk
// variance comparison.
package characterize

import (
	"fmt"
	"io"

	"vwchar/internal/experiment"
	"vwchar/internal/stats"
	"vwchar/internal/sysstat"
	"vwchar/internal/timeseries"
)

// Resource names the four resource classes the paper compares.
type Resource = sysstat.Resource

// The four resources.
const (
	CPU     = sysstat.CPU
	RAM     = sysstat.RAM
	Disk    = sysstat.Disk
	Network = sysstat.Net
)

// warmupFraction drops the first fifth of samples so warm-up transients
// (cold buffer pool, page caches filling) do not skew the steady-state
// means the paper reports.
const warmupFraction = 0.2

// steady returns s after the warm-up skip.
func steady(s *timeseries.Series) *timeseries.Series {
	return s.Slice(int(float64(s.Len())*warmupFraction), s.Len())
}

// steadyMean is the steady-state mean of tier's series for res.
func steadyMean(r *experiment.Result, tier string, res Resource) float64 {
	return steady(r.Resource(tier, res)).Mean()
}

// Ratios holds one value per resource.
type Ratios struct {
	CPU, RAM, Disk, Network float64
}

// each builds Ratios from one value per resource.
func each(f func(Resource) float64) Ratios {
	return Ratios{CPU: f(CPU), RAM: f(RAM), Disk: f(Disk), Network: f(Network)}
}

// Reference is one mix's paper values for the Section 4 comparisons.
type Reference struct {
	// TierRatios is §4.1 front-end over back-end demand.
	TierRatios Ratios
	// VMToDom0 is §4.1 aggregated VMs over dom0.
	VMToDom0 Ratios
	// EnvAggregate is §4.2 non-virtualized aggregate over virtualized
	// dom0.
	EnvAggregate Ratios
	// PhysicalDelta is §4.2 non-virtualized over application-attributed
	// virtualized demand, minus one.
	PhysicalDelta Ratios
}

// Paper is what the paper reports for the browsing mix, the reference
// every report prints beside the simulated values.
var Paper = Reference{
	TierRatios:    Ratios{CPU: 6.11, RAM: 3.29, Disk: 5.71, Network: 55.56},
	VMToDom0:      Ratios{CPU: 16.84, RAM: 0.58, Disk: 0.47, Network: 0.98},
	EnvAggregate:  Ratios{CPU: 3.47, RAM: 0.97, Disk: 0.60, Network: 0.98},
	PhysicalDelta: Ratios{CPU: 0.88, RAM: 0.21, Disk: -0.25, Network: 0.02},
}

// Get returns the ratio for a resource.
func (r Ratios) Get(res Resource) float64 {
	switch res {
	case CPU:
		return r.CPU
	case RAM:
		return r.RAM
	case Disk:
		return r.Disk
	case Network:
		return r.Network
	}
	return 0
}

// TierRatios computes the paper's §4.1 front-end/back-end demand ratios
// from a virtualized run: how many times more CPU cycles, RAM, disk
// read/write, and network data the web+application tier demands than the
// database tier (paper: 6.11, 3.29, 5.71, 55.56).
func TierRatios(r *experiment.Result) Ratios {
	return each(func(res Resource) float64 {
		front := steadyMean(r, experiment.TierWeb, res)
		back := steadyMean(r, experiment.TierDB, res)
		if back == 0 {
			return 0
		}
		return front / back
	})
}

// VMToDom0Ratios computes the paper's §4.1 aggregated-VM versus
// hypervisor ratios from a virtualized run (paper: 16.84, 0.58, 0.47,
// 0.98). Values above 1 mean the VM counters exceed what dom0 observes.
func VMToDom0Ratios(r *experiment.Result) Ratios {
	return each(func(res Resource) float64 {
		vm := steadyMean(r, experiment.TierWeb, res) + steadyMean(r, experiment.TierDB, res)
		dom0 := steadyMean(r, experiment.TierDom0, res)
		if dom0 == 0 {
			return 0
		}
		return vm / dom0
	})
}

// EnvAggregateRatios computes the paper's §4.2 non-virtualized versus
// virtualized aggregate ratios: non-virt (web+db physical) totals over
// the dom0-measured totals of the virtualized run (paper: 3.47, 0.97,
// 0.6, 0.98).
func EnvAggregateRatios(virt, phys *experiment.Result) Ratios {
	return each(func(res Resource) float64 {
		nonVirt := steadyMean(phys, experiment.TierWeb, res) + steadyMean(phys, experiment.TierDB, res)
		dom0 := steadyMean(virt, experiment.TierDom0, res)
		if dom0 == 0 {
			return 0
		}
		return nonVirt / dom0
	})
}

// PhysicalDelta computes the paper's §4.2 physical-demand deltas:
// non-virtualized demand versus the *application-attributed* physical
// demand of the virtualized deployment (guest physical share plus dom0
// backend work, excluding dom0's own management activity). The paper
// reports +88% CPU, +21% RAM, +2% network, and -25% disk. Values are
// (nonVirt/virtApp - 1).
func PhysicalDelta(virt, phys *experiment.Result) Ratios {
	samples := float64(virt.Resources.Windows())
	if samples == 0 {
		return Ratios{}
	}
	attr := virt.Attribution

	nonVirt := func(res Resource) float64 {
		return steadyMean(phys, experiment.TierWeb, res) + steadyMean(phys, experiment.TierDB, res)
	}

	// Application-attributed virtualized physical demand, averaged per
	// 2-second sample to match the series units.
	virtCPU := (virt.GuestPhysCycles + attr.BackendCycles) / samples
	virtDisk := attr.BackendDiskBytes / samples / 1024 // KB per sample
	virtNet := attr.BackendNetBytes / samples / 1024
	// RAM: guest used + dom0 backend buffers (gauges, not rates).
	virtRAM := steadyMean(virt, experiment.TierWeb, RAM) +
		steadyMean(virt, experiment.TierDB, RAM) +
		virt.Dom0BuffersMB

	delta := func(nv, va float64) float64 {
		if va == 0 {
			return 0
		}
		return nv/va - 1
	}
	return Ratios{
		CPU:     delta(nonVirt(CPU), virtCPU),
		RAM:     delta(nonVirt(RAM), virtRAM),
		Disk:    delta(nonVirt(Disk), virtDisk),
		Network: delta(nonVirt(Network), virtNet),
	}
}

// LagResult is the inter-tier lag estimate.
type LagResult struct {
	// LagSamples is the lag of the DB tier behind the web tier in
	// 2-second samples; LagSeconds converts it.
	LagSamples int
	LagSeconds float64
	// Correlation at the best lag.
	Correlation float64
}

// TierLag estimates how far the DB tier's CPU demand trails the web
// tier's via cross-correlation (paper §4.1: "there exist some lags
// between workload changes of the database server and the web and
// application servers").
func TierLag(r *experiment.Result) LagResult {
	web := r.Resource(experiment.TierWeb, CPU)
	db := r.Resource(experiment.TierDB, CPU)
	lag, corr := stats.EstimateLag(web.Values, db.Values, 10)
	return LagResult{
		LagSamples:  lag,
		LagSeconds:  float64(lag) * web.Interval,
		Correlation: corr,
	}
}

// RAMJumps detects the abrupt sustained RAM increases of the web tier
// (paper Figures 2 and 6). Window and threshold follow the figures'
// scale: 15 samples (30 s) and 50 MB.
func RAMJumps(r *experiment.Result, tier string) []stats.Jump {
	return stats.DetectJumps(r.Resource(tier, RAM).Values, 15, 50)
}

// FirstJumpTime reports the time (seconds) of the earliest detected web
// tier RAM jump, or -1 when none occurred. The paper observes jumps
// happening earlier in the non-virtualized system.
func FirstJumpTime(r *experiment.Result) float64 {
	jumps := RAMJumps(r, experiment.TierWeb)
	if len(jumps) == 0 {
		return -1
	}
	return r.Resource(experiment.TierWeb, RAM).TimeAt(jumps[0].Index)
}

// DiskVariance compares disk I/O variability between environments via
// the coefficient of variation of the web tier disk series (paper §4.2:
// "disk read and write workload shows higher variance in the
// non-virtualized system").
func DiskVariance(r *experiment.Result, tier string) float64 {
	return stats.Summarize(steady(r.Resource(tier, Disk)).Values).CoV
}

// Report is the full characterization of a browse+bid pair of runs in
// both environments — everything the paper's Section 4 claims, computed
// from our traces.
type Report struct {
	// Virtualized §4.1.
	TierRatiosBrowse, TierRatiosBid Ratios
	VMDom0Browse, VMDom0Bid         Ratios
	LagBrowse, LagBid               LagResult
	WebJumpsBrowseVirt              int
	WebJumpsBidVirt                 int

	// Cross-environment §4.2.
	EnvAggregateBrowse, EnvAggregateBid Ratios
	PhysicalDeltaBrowse                 Ratios
	PhysicalDeltaBid                    Ratios
	DiskCoVVirt, DiskCoVPhys            float64
	FirstJumpVirt, FirstJumpPhys        float64
	WebJumpsBidPhys                     int
}

// BuildReport computes the full characterization from the four runs.
func BuildReport(virtBrowse, virtBid, physBrowse, physBid *experiment.Result) Report {
	return Report{
		TierRatiosBrowse:    TierRatios(virtBrowse),
		TierRatiosBid:       TierRatios(virtBid),
		VMDom0Browse:        VMToDom0Ratios(virtBrowse),
		VMDom0Bid:           VMToDom0Ratios(virtBid),
		LagBrowse:           TierLag(virtBrowse),
		LagBid:              TierLag(virtBid),
		WebJumpsBrowseVirt:  len(RAMJumps(virtBrowse, experiment.TierWeb)),
		WebJumpsBidVirt:     len(RAMJumps(virtBid, experiment.TierWeb)),
		EnvAggregateBrowse:  EnvAggregateRatios(virtBrowse, physBrowse),
		EnvAggregateBid:     EnvAggregateRatios(virtBid, physBid),
		PhysicalDeltaBrowse: PhysicalDelta(virtBrowse, physBrowse),
		PhysicalDeltaBid:    PhysicalDelta(virtBid, physBid),
		DiskCoVVirt:         DiskVariance(virtBrowse, experiment.TierWeb),
		DiskCoVPhys:         DiskVariance(physBrowse, experiment.TierWeb),
		FirstJumpVirt:       FirstJumpTime(virtBrowse),
		FirstJumpPhys:       FirstJumpTime(physBid),
		WebJumpsBidPhys:     len(RAMJumps(physBid, experiment.TierWeb)),
	}
}

// Write renders the report with the paper's reference values alongside.
func (rep Report) Write(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("Workload characterization report (paper reference values in brackets)\n\n"); err != nil {
		return err
	}
	row := func(label string, r, ref Ratios) error {
		return p("  %-34s cpu %6.2f [%.2f]   ram %5.2f [%.2f]   disk %5.2f [%.2f]   net %6.2f [%.2f]\n",
			label, r.CPU, ref.CPU, r.RAM, ref.RAM, r.Disk, ref.Disk, r.Network, ref.Network)
	}
	// The paper reports browsing values only; they are the reference
	// for the bidding rows too.
	for _, sec := range []struct {
		title       string
		browse, bid Ratios
		ref         Ratios
	}{
		{"Front-end / back-end demand (virtualized, §4.1):\n", rep.TierRatiosBrowse, rep.TierRatiosBid, Paper.TierRatios},
		{"VM aggregate / dom0 (virtualized, §4.1):\n", rep.VMDom0Browse, rep.VMDom0Bid, Paper.VMToDom0},
		{"Non-virtualized / virtualized aggregate (§4.2):\n", rep.EnvAggregateBrowse, rep.EnvAggregateBid, Paper.EnvAggregate},
	} {
		if err := p(sec.title); err != nil {
			return err
		}
		if err := row("browsing", sec.browse, sec.ref); err != nil {
			return err
		}
		if err := row("bidding", sec.bid, sec.ref); err != nil {
			return err
		}
	}
	d := Paper.PhysicalDelta
	if err := p("Physical-demand delta, non-virt vs app-attributed virt (§4.2, paper: %+.0f%% cpu, %+.0f%% ram, %+.0f%% net, %+.0f%% disk):\n",
		d.CPU*100, d.RAM*100, d.Network*100, d.Disk*100); err != nil {
		return err
	}
	if err := p("  browsing: cpu %+.0f%%  ram %+.0f%%  disk %+.0f%%  net %+.0f%%\n",
		rep.PhysicalDeltaBrowse.CPU*100, rep.PhysicalDeltaBrowse.RAM*100,
		rep.PhysicalDeltaBrowse.Disk*100, rep.PhysicalDeltaBrowse.Network*100); err != nil {
		return err
	}
	if err := p("Inter-tier lag (DB behind web): browse %.0fs (corr %.2f), bid %.0fs (corr %.2f)\n",
		rep.LagBrowse.LagSeconds, rep.LagBrowse.Correlation,
		rep.LagBid.LagSeconds, rep.LagBid.Correlation); err != nil {
		return err
	}
	if err := p("Web RAM jumps: virt browse %d, virt bid %d, phys bid %d (paper: browse jumps in VMs; phys jumps earlier)\n",
		rep.WebJumpsBrowseVirt, rep.WebJumpsBidVirt, rep.WebJumpsBidPhys); err != nil {
		return err
	}
	if err := p("First web RAM jump: virt %.0fs, phys %.0fs\n", rep.FirstJumpVirt, rep.FirstJumpPhys); err != nil {
		return err
	}
	return p("Disk CoV: virt %.2f vs phys %.2f (paper: higher variance non-virtualized)\n",
		rep.DiskCoVVirt, rep.DiskCoVPhys)
}
