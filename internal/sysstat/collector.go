package sysstat

import (
	"fmt"
	"slices"
	"sort"

	"vwchar/internal/sim"
	"vwchar/internal/timeseries"
)

// SampleInterval is the paper's monitoring period.
const SampleInterval = 2 * sim.Second

// Target is one monitored OS instance.
type Target struct {
	// Name labels the instance ("webapp.vm", "mysql.vm", "dom0", ...).
	Name string
	// Snap captures the instance's current state.
	Snap func() Snapshot
}

// Collector samples all targets every 2 seconds, producing both the
// headline per-2s demand series used by the paper's figures and the full
// 182-metric catalog per target.
type Collector struct {
	k       *sim.Kernel
	targets []collected

	ticker *sim.Ticker
	// onSample hooks fire after each collection round, in registration
	// order — the telemetry recorders rotate their windows here, which
	// is what aligns the latency series with the resource series.
	onSample []func(now sim.Time)
	// Samples counts collection rounds.
	Samples int
}

// collected is one target's record: its last two snapshots and its
// series. Keeping both snapshots here lets sample evaluate the catalog
// on them in place.
type collected struct {
	Target
	prev, cur           Snapshot
	cpu, mem, disk, net *timeseries.Series
	// full holds one series per catalog metric, by catalog position;
	// nil unless the full catalog is kept.
	full []*timeseries.Series
}

// NewCollector builds a collector over the given targets. keepFull
// records all 182 metrics per target; the headline series are always
// kept.
func NewCollector(k *sim.Kernel, keepFull bool, targets ...Target) *Collector {
	c := &Collector{k: k, targets: make([]collected, len(targets))}
	for i, t := range targets {
		c.targets[i] = collected{
			Target: t,
			prev:   t.Snap(),
			cpu:    timeseries.New(t.Name+".cpu.cycles", "cycles/2s"),
			mem:    timeseries.New(t.Name+".mem.used", "MB"),
			disk:   timeseries.New(t.Name+".disk.rw", "KB/2s"),
			net:    timeseries.New(t.Name+".net.rxtx", "KB/2s"),
		}
		if keepFull {
			full := make([]*timeseries.Series, len(catalog))
			for j, m := range catalog {
				full[j] = timeseries.New(t.Name+"/"+m.Name, m.Unit)
			}
			c.targets[i].full = full
		}
	}
	return c
}

// OnSample registers a hook invoked after every collection round with
// the sample time. Hooks run on the collector's ticker in registration
// order, so anything they emit shares the resource series' time axis
// sample for sample. Register before Start.
func (c *Collector) OnSample(fn func(now sim.Time)) {
	c.onSample = append(c.onSample, fn)
}

// Start begins sampling (first sample after one interval).
func (c *Collector) Start() {
	c.ticker = c.k.Every(SampleInterval, SampleInterval, c.sample)
}

// Stop ends the collection: it halts sampling and drops everything
// that reaches the simulation — the kernel, the ticker, the OnSample
// hooks and every target's Snap. What was collected stays: the series,
// Samples and the target names, so the accessors keep working on a
// collector that outlives its run.
func (c *Collector) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
	c.k, c.ticker, c.onSample = nil, nil, nil
	for i := range c.targets {
		c.targets[i].Snap = nil
	}
}

func (c *Collector) sample(now sim.Time) {
	dt := SampleInterval.Sec()
	for i := range c.targets {
		t := &c.targets[i]
		t.cur = t.Snap()
		prev, cur := &t.prev, &t.cur
		t.cpu.Append(cur.CPUCycles - prev.CPUCycles)
		t.mem.Append(cur.MemUsed / 1e6)
		t.disk.Append(((cur.DiskReadBytes + cur.DiskWriteBytes) - (prev.DiskReadBytes + prev.DiskWriteBytes)) / 1024)
		t.net.Append(((cur.NetRxBytes + cur.NetTxBytes) - (prev.NetRxBytes + prev.NetTxBytes)) / 1024)
		for j, s := range t.full {
			s.Append(catalog[j].Eval(prev, cur, dt))
		}
		t.prev = t.cur
	}
	c.Samples++
	for _, fn := range c.onSample {
		fn(now)
	}
}

// unmonitored is the record of every name the collector does not
// monitor: all its series are nil.
var unmonitored collected

// target returns name's record, or &unmonitored.
func (c *Collector) target(name string) *collected {
	for i := range c.targets {
		if c.targets[i].Name == name {
			return &c.targets[i]
		}
	}
	return &unmonitored
}

// CPU returns the per-2s CPU cycle demand series for target name.
func (c *Collector) CPU(name string) *timeseries.Series { return c.target(name).cpu }

// Mem returns the used-memory series (MB) for target name.
func (c *Collector) Mem(name string) *timeseries.Series { return c.target(name).mem }

// Disk returns the per-2s disk read+write series (KB) for target name.
func (c *Collector) Disk(name string) *timeseries.Series { return c.target(name).disk }

// Net returns the per-2s network rx+tx series (KB) for target name.
func (c *Collector) Net(name string) *timeseries.Series { return c.target(name).net }

// Metric returns the full-catalog series target/metric, or an error when
// the collector was not recording the full catalog.
func (c *Collector) Metric(target, metric string) (*timeseries.Series, error) {
	t := c.target(target)
	i := slices.IndexFunc(catalog, func(m Metric) bool { return m.Name == metric })
	switch {
	case t.cpu != nil && t.full == nil:
		return nil, fmt.Errorf("sysstat: full catalog not recorded")
	case t.full == nil || i < 0:
		return nil, fmt.Errorf("sysstat: no series %q for target %q", metric, target)
	}
	return t.full[i], nil
}

// MetricNames lists the catalog metric names in catalog order.
func (c *Collector) MetricNames() []string {
	out := make([]string, len(catalog))
	for i, m := range catalog {
		out[i] = m.Name
	}
	return out
}

// TargetNames lists monitored targets in registration order.
func (c *Collector) TargetNames() []string {
	out := make([]string, len(c.targets))
	for i, t := range c.targets {
		out[i] = t.Name
	}
	return out
}

// GroupCounts tallies catalog metrics per sar group, sorted by group
// name — used by Table 1 and the catalog tests.
func GroupCounts() []struct {
	Group string
	Count int
} {
	counts := make(map[string]int)
	for _, m := range catalog {
		counts[m.Group]++
	}
	groups := make([]string, 0, len(counts))
	for g := range counts {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	out := make([]struct {
		Group string
		Count int
	}, 0, len(groups))
	for _, g := range groups {
		out = append(out, struct {
			Group string
			Count int
		}{g, counts[g]})
	}
	return out
}
