// Package osmodel tracks the operating-system-level activity of one OS
// instance (a VM guest, dom0, or a bare-metal host): process and context
// switch counters, interrupts, paging, memory segments, and load
// averages. The sysstat collector samples this state every 2 seconds to
// synthesize its 182 metrics, mirroring what sysstat reads from /proc.
package osmodel

import (
	"vwchar/internal/hw"
	"vwchar/internal/sim"
)

// OS models one operating system instance.
type OS struct {
	// Cumulative activity counters, advanced by the workload models.
	CtxSwitches uint64
	Interrupts  uint64
	SoftIRQs    uint64
	Forks       uint64
	Faults      uint64
	MajFaults   uint64
	// PgInBytes and PgOutBytes count disk-backed paging traffic.
	PgInBytes  float64
	PgOutBytes float64

	// Instantaneous state.
	Procs    int
	RunQueue int
	OpenFds  int

	load1, load5, load15 float64
}

// New returns an OS with a baseline process population (kernel threads
// plus init-style daemons).
func New(baseProcs int) *OS {
	return &OS{Procs: baseProcs, OpenFds: baseProcs * 8}
}

// Fork records process creations.
func (o *OS) Fork(n int) {
	o.Forks += uint64(n)
	o.Procs += n
}

// NoteContext records n context switches.
func (o *OS) NoteContext(n uint64) { o.CtxSwitches += n }

// NoteInterrupts records hardware interrupts and softirqs.
func (o *OS) NoteInterrupts(hard, soft uint64) {
	o.Interrupts += hard
	o.SoftIRQs += soft
}

// NoteFaults records minor and major page faults.
func (o *OS) NoteFaults(minor, major uint64) {
	o.Faults += minor + major
	o.MajFaults += major
}

// NotePaging records disk-backed page traffic in bytes.
func (o *OS) NotePaging(inBytes, outBytes float64) {
	if inBytes > 0 {
		o.PgInBytes += inBytes
	}
	if outBytes > 0 {
		o.PgOutBytes += outBytes
	}
}

// LoadAvg reports the 1/5/15-minute load averages.
func (o *OS) LoadAvg() (l1, l5, l15 float64) { return o.load1, o.load5, o.load15 }

// Tick advances the load averages given the elapsed interval; call it
// from the collector's sampling loop. The decay constants follow the
// kernel's fixed-point loadavg (exp(-dt/60), etc.).
func (o *OS) Tick(dt sim.Time) {
	secs := dt.Sec()
	if secs <= 0 {
		return
	}
	n := float64(o.RunQueue)
	decay := func(period float64) float64 {
		// First-order approximation of exp(-secs/period), adequate for
		// 2 s ticks against 60 s+ periods and cheaper to reason about.
		f := 1 - secs/period
		if f < 0 {
			f = 0
		}
		return f
	}
	f1, f5, f15 := decay(60), decay(300), decay(900)
	o.load1 = o.load1*f1 + n*(1-f1)
	o.load5 = o.load5*f5 + n*(1-f5)
	o.load15 = o.load15*f15 + n*(1-f15)
}

// ChunkAllocator grows a labeled memory component in discrete chunks as
// observed load crosses escalating thresholds. This reproduces the
// paper's observation that browsing workloads show abrupt RAM jumps: "as
// more client browsing requests arrive, some requests are backlogged and
// after a certain period of time the server allocates more RAM to
// process those backlogged requests" (Apache spawning worker batches).
//
// The k-th growth triggers when the observed level reaches Threshold*k,
// so each jump requires a new high-water mark — which is why jumps are
// sparse and happen at load-dependent times. Growth is one-way within a
// run: worker pools do not reap quickly relative to the paper's
// 20-minute window.
type ChunkAllocator struct {
	// Mem and Label select the component to grow.
	Mem   *hw.Memory
	Label string
	// Base is the component's initial size in bytes.
	Base float64
	// Chunk is the growth increment in bytes.
	Chunk float64
	// Max bounds Base+growth.
	Max float64
	// Threshold is the load level that triggers the first growth; the
	// k-th growth requires Threshold*k.
	Threshold int
	// Cooldown is the minimum virtual time between growths.
	Cooldown sim.Time

	grown      float64
	lastGrowth sim.Time
	started    bool
	// Growths counts chunk allocations, exposed for jump verification.
	Growths int
}

// Init installs the base allocation; call once before the run starts.
func (a *ChunkAllocator) Init() {
	a.Mem.Set(a.Label, a.Base)
	a.started = true
}

// Observe inspects the load level at virtual time now and grows the
// component when warranted, returning true when a growth occurred.
func (a *ChunkAllocator) Observe(now sim.Time, level int) bool {
	if !a.started {
		a.Init()
	}
	if a.Threshold <= 0 || level < a.Threshold*(a.Growths+1) {
		return false
	}
	if a.Growths > 0 && now-a.lastGrowth < a.Cooldown {
		return false
	}
	if a.Base+a.grown+a.Chunk > a.Max {
		return false
	}
	a.grown += a.Chunk
	a.Growths++
	a.lastGrowth = now
	a.Mem.Set(a.Label, a.Base+a.grown)
	return true
}

// PageCache models an OS page cache that warms toward a ceiling as bytes
// are read, with diminishing returns: each read inserts the fraction of
// its bytes that were not already cached.
type PageCache struct {
	Mem   *hw.Memory
	Label string
	// Ceiling bounds the cache size in bytes.
	Ceiling float64

	size float64
}

// Touch records a read of n bytes, growing the cache, and returns the
// bytes that missed (and therefore hit the disk).
func (p *PageCache) Touch(n float64) (missBytes float64) {
	if n <= 0 {
		return 0
	}
	hitRatio := 0.0
	if p.Ceiling > 0 {
		hitRatio = p.size / p.Ceiling
	}
	miss := n * (1 - hitRatio)
	p.size += miss * 0.5 // half of missed bytes are cacheable pages
	if p.size > p.Ceiling {
		p.size = p.Ceiling
	}
	if p.Mem != nil {
		p.Mem.Set(p.Label, p.size)
	}
	return miss
}
