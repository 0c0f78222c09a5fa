// Package hw models the physical resources of a cloud server: a
// multi-core processor-sharing CPU, a disk with seek+transfer service
// times, a network interface, and RAM accounting. The default profile
// matches the paper's testbed (HP ProLiant: 8 Intel Xeon 2.8 GHz cores,
// 32 GB RAM, 2 TB disk, gigabit Ethernet).
//
// All devices are driven by the discrete-event kernel in internal/sim and
// maintain cumulative demand counters that the sysstat collector samples
// every 2 seconds, exactly as the paper's monitoring did. Completion
// callbacks follow the kernel's closure-free (sim.Callback, arg)
// convention, and job/event state is pooled, so steady-state dispatch
// performs no heap allocations.
package hw

import (
	"math"

	"fmt"

	"vwchar/internal/sim"
)

// CPU is a processor-sharing multi-core CPU. Up to Cores jobs run at full
// speed; beyond that, capacity is divided equally (the classic PS model
// of a time-sharing OS scheduler at 2-second observation granularity).
//
// Speed scaling: SetSpeed adjusts the effective capacity, which is how
// the Xen credit scheduler throttles a domain's VCPUs without the devices
// knowing they are virtualized.
type CPU struct {
	k       *sim.Kernel
	cores   int
	freqHz  float64
	speed   float64 // multiplier applied by a hypervisor scheduler
	jobs    []*cpuJob
	jobFree sim.FreeList[cpuJob]
	nextSeq uint64

	lastUpdate sim.Time
	completion sim.Event

	// doneScratch stages completed-job callbacks so job structs can be
	// recycled before the callbacks (which may submit new jobs) run.
	doneScratch []pendingDone

	// cumulative counters (sampled by the collector)
	totalCycles float64
	busyTime    sim.Time
}

type cpuJob struct {
	remaining float64 // cycles
	done      sim.Callback
	arg       any
	seq       uint64
}

type pendingDone struct {
	done sim.Callback
	arg  any
}

// NewCPU builds a CPU with the given core count and per-core frequency.
func NewCPU(k *sim.Kernel, name string, cores int, freqHz float64) *CPU {
	if cores <= 0 {
		panic(fmt.Sprintf("hw: CPU %q needs >=1 core", name))
	}
	if freqHz <= 0 {
		panic(fmt.Sprintf("hw: CPU %q needs positive frequency", name))
	}
	return &CPU{
		k:      k,
		cores:  cores,
		freqHz: freqHz,
		speed:  1,
	}
}

// Active reports the number of in-flight jobs.
func (c *CPU) Active() int { return len(c.jobs) }

// TotalCycles reports the cumulative cycles executed so far.
func (c *CPU) TotalCycles() float64 {
	c.advance()
	return c.totalCycles
}

// BusyTime reports cumulative virtual time with at least one job running.
func (c *CPU) BusyTime() sim.Time {
	c.advance()
	return c.busyTime
}

// perJobRate returns cycles/second granted to each active job.
func (c *CPU) perJobRate() float64 {
	n := len(c.jobs)
	if n == 0 {
		return 0
	}
	rate := c.freqHz * c.speed
	if n > c.cores {
		rate *= float64(c.cores) / float64(n)
	}
	return rate
}

// advance drains remaining cycles for the elapsed interval.
func (c *CPU) advance() {
	now := c.k.Now()
	dt := now - c.lastUpdate
	if dt <= 0 {
		c.lastUpdate = now
		return
	}
	if len(c.jobs) > 0 {
		rate := c.perJobRate()
		drained := rate * float64(dt) / float64(sim.Second)
		for _, j := range c.jobs {
			j.remaining -= drained
			if j.remaining < 0 {
				j.remaining = 0
			}
		}
		c.totalCycles += drained * float64(len(c.jobs))
		c.busyTime += dt
	}
	c.lastUpdate = now
}

// cpuComplete is the closure-free completion callback: one per CPU, the
// CPU itself is the context.
func cpuComplete(arg any) { arg.(*CPU).complete() }

// reschedule computes the next completion time and plants one event,
// moving the existing pooled event in place when possible.
func (c *CPU) reschedule() {
	if len(c.jobs) == 0 {
		c.completion.Cancel()
		return
	}
	rate := c.perJobRate()
	if rate <= 0 {
		// Domain currently descheduled: work is frozen until SetSpeed
		// grants capacity again.
		c.completion.Cancel()
		return
	}
	next := c.jobs[0]
	for _, j := range c.jobs[1:] {
		if j.remaining < next.remaining ||
			(j.remaining == next.remaining && j.seq < next.seq) {
			next = j
		}
	}
	// Round the completion delay up to a whole nanosecond. Rounding down
	// would leave sub-nanosecond residues that re-fire at the same
	// timestamp forever; together with the epsilon in complete() this
	// guarantees progress.
	delay := sim.Time(math.Ceil(next.remaining / rate * float64(sim.Second)))
	if delay < 1 {
		delay = 1
	}
	at := c.k.Now() + delay
	if !c.completion.Reschedule(at) {
		c.completion = c.k.AtCall(at, cpuComplete, c)
	}
}

// complete retires every job whose demand has drained. The epsilon is
// one nanosecond of work at the current rate: below that the job cannot
// be distinguished from done at the kernel's time resolution.
func (c *CPU) complete() {
	c.advance()
	eps := c.perJobRate() * 1e-9
	if eps < 1e-6 {
		eps = 1e-6
	}
	// Partition in place: jobs are stored in submission (seq) order, so
	// the filtered survivors and the finished set both stay seq-sorted,
	// which keeps completion order deterministic.
	c.doneScratch = c.doneScratch[:0]
	w := 0
	for _, j := range c.jobs {
		if j.remaining <= eps {
			c.doneScratch = append(c.doneScratch, pendingDone{j.done, j.arg})
			c.jobFree.Put(j)
			continue
		}
		c.jobs[w] = j
		w++
	}
	for i := w; i < len(c.jobs); i++ {
		c.jobs[i] = nil
	}
	c.jobs = c.jobs[:w]
	c.reschedule()
	for i := range c.doneScratch {
		d := &c.doneScratch[i]
		if d.done != nil {
			d.done(d.arg)
		}
		d.done = nil
		d.arg = nil
	}
}

// Submit enqueues cycles of CPU demand; done (optional, with its context
// arg) fires when they have been executed. Zero or negative demand
// completes on the next event tick.
func (c *CPU) Submit(cycles float64, done sim.Callback, arg any) {
	c.advance()
	if cycles < 0 {
		cycles = 0
	}
	j := c.jobFree.Get()
	j.remaining = cycles
	j.done = done
	j.arg = arg
	j.seq = c.nextSeq
	c.nextSeq++
	c.jobs = append(c.jobs, j)
	c.reschedule()
}

// SetSpeed scales effective capacity by factor (>=0). The hypervisor's
// credit scheduler calls this each quantum; factor 0 freezes the domain.
func (c *CPU) SetSpeed(factor float64) {
	if factor < 0 {
		factor = 0
	}
	c.advance()
	c.speed = factor
	c.reschedule()
}
