package sysstat

import (
	"vwchar/internal/sim"
	"vwchar/internal/timeseries"
)

// SampleInterval is the paper's monitoring period.
const SampleInterval = 2 * sim.Second

// Resource is one of the four resource classes the paper compares,
// spelled as figures and workload-model keys spell it.
type Resource string

// The four resources.
const (
	CPU  Resource = "cpu"
	RAM  Resource = "ram"
	Disk Resource = "disk"
	Net  Resource = "net"
)

// headline maps each resource, in the paper's order, to its per-target
// series: name suffix, unit and the sample it takes from two snapshots.
// It is the one place that does.
var headline = [...]struct {
	res          Resource
	suffix, unit string
	eval         func(prev, cur *Snapshot) float64
}{
	{CPU, ".cpu.cycles", "cycles/2s", func(prev, cur *Snapshot) float64 {
		return cur.CPUCycles - prev.CPUCycles
	}},
	{RAM, ".mem.used", "MB", func(_, cur *Snapshot) float64 {
		return cur.MemUsed / 1e6
	}},
	{Disk, ".disk.rw", "KB/2s", func(prev, cur *Snapshot) float64 {
		return ((cur.DiskReadBytes + cur.DiskWriteBytes) - (prev.DiskReadBytes + prev.DiskWriteBytes)) / 1024
	}},
	{Net, ".net.rxtx", "KB/2s", func(prev, cur *Snapshot) float64 {
		return ((cur.NetRxBytes + cur.NetTxBytes) - (prev.NetRxBytes + prev.NetTxBytes)) / 1024
	}},
}

// Resources lists the four resources in the paper's order.
func Resources() []Resource { return []Resource{CPU, RAM, Disk, Net} }

// Series names target's headline series for r, e.g.
// "webapp.cpu.cycles". For an unknown resource it is target alone,
// which names no series.
func (r Resource) Series(target string) string { return target + r.suffix() }

// suffix is kept out of Series so that Series inlines and a lookup's
// name need not escape to the heap.
func (r Resource) suffix() string {
	for i := range headline {
		if headline[i].res == r {
			return headline[i].suffix
		}
	}
	return ""
}

// Target is one monitored OS instance.
type Target struct {
	// Name labels the instance ("webapp.vm", "mysql.vm", "dom0", ...).
	Name string
	// Snap captures the instance's current state.
	Snap func() Snapshot
}

// Collector samples all targets every 2 seconds into one series set,
// target-major: each target's four headline series, named by
// Resource.Series, then its full 182-metric catalog as
// "<target>/<metric>" when kept.
type Collector struct {
	k       *sim.Kernel
	targets []collected
	// series is its own allocation, so a reader holding it does not
	// hold the collector, its targets or the kernel.
	series *timeseries.Set
	full   bool
	// onSample hooks fire after each collection round, in registration
	// order — the telemetry recorders rotate their windows here, which
	// is what aligns the latency series with the resource series.
	onSample []func(now sim.Time)
}

// collected is one target's last two snapshots; keeping both here lets
// sample evaluate the catalog on them in place.
type collected struct {
	Target
	prev, cur Snapshot
}

// NewCollector builds a collector over the given targets. keepFull
// records all 182 metrics per target; the headline series are always
// kept.
func NewCollector(k *sim.Kernel, keepFull bool, targets ...Target) *Collector {
	c := &Collector{k: k, targets: make([]collected, len(targets)), full: keepFull}
	per := len(headline)
	if keepFull {
		per += len(catalog)
	}
	series := make([]*timeseries.Series, 0, len(targets)*per)
	for i, t := range targets {
		c.targets[i] = collected{Target: t, prev: t.Snap()}
		for _, h := range headline {
			series = append(series, timeseries.New(t.Name+h.suffix, h.unit))
		}
		if keepFull {
			for _, m := range catalog {
				series = append(series, timeseries.New(t.Name+"/"+m.Name, m.Unit))
			}
		}
	}
	c.series = timeseries.NewSet(series...)
	return c
}

// Series returns the collected series.
func (c *Collector) Series() *timeseries.Set { return c.series }

// OnSample registers a hook invoked after every collection round with
// the sample time. Hooks run on the collector's ticker in registration
// order, so anything they emit shares the resource series' time axis
// sample for sample. Register before Start.
func (c *Collector) OnSample(fn func(now sim.Time)) {
	c.onSample = append(c.onSample, fn)
}

// Start begins sampling (first sample after one interval).
func (c *Collector) Start() {
	c.k.Every(SampleInterval, SampleInterval, c.sample)
}

// sample appends one value to every series, walking them in set order.
func (c *Collector) sample(now sim.Time) {
	dt := SampleInterval.Sec()
	all := c.series.All()
	j := 0
	for i := range c.targets {
		t := &c.targets[i]
		t.cur = t.Snap()
		prev, cur := &t.prev, &t.cur
		for k := range headline {
			all[j].Append(headline[k].eval(prev, cur))
			j++
		}
		if c.full {
			for k := range catalog {
				all[j].Append(catalog[k].Eval(prev, cur, dt))
				j++
			}
		}
		t.prev = t.cur
	}
	for _, fn := range c.onSample {
		fn(now)
	}
}
