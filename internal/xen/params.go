// Package xen models the virtualization substrate of the paper's testbed:
// a Xen 3.1.2-style hypervisor with a privileged dom0, a weighted credit
// scheduler, split-driver (netback/blkback) I/O that routes every guest
// disk and network operation through dom0, and the dual view of CPU
// cycles — the guest-visible virtual-time counter versus the physical
// cycles the hypervisor actually charges.
//
// The distinction between dom0's *backend* work (caused by guest I/O) and
// its *own* management activity is first-class: that split reconciles
// the paper's two non-virtualized-vs-virtualized claims, and the
// characterization layer reports both.
package xen

import "vwchar/internal/sim"

// Params holds the hypervisor cost model. Defaults are calibrated so the
// simulated counters land on the paper's figure axes.
type Params struct {
	// Quantum is the credit scheduler time slice (Xen default 30 ms).
	Quantum sim.Time

	// GuestVCPURate is the rate (per second) at which a guest VCPU
	// retires guest-visible "virtual cycles". It is far below the
	// physical clock: paravirtual cycle accounting at the 2-second sar
	// granularity advances much slower than the TSC while costing real
	// wall-clock time, which is what makes VM-reported cycle counts and
	// dom0-reported cycle counts incommensurable in the paper's figures.
	GuestVCPURate float64

	// VirtCycleInflation is the ratio of guest-visible cycle counts to
	// physical cycles charged by the hypervisor. The paper's own numbers
	// (VM CPU aggregate = 16.84x dom0 while dom0 performs all I/O) are
	// only consistent with strongly inflated guest counters.
	VirtCycleInflation float64

	// NetbackCyclesPerByte is dom0 CPU charged per guest network byte
	// (bridge + netback copy).
	NetbackCyclesPerByte float64
	// BlkbackCyclesPerByte is dom0 CPU charged per guest disk byte.
	BlkbackCyclesPerByte float64
	// PerIOBackendCycles is the fixed dom0 CPU cost per guest I/O op
	// (event channel, grant map/unmap).
	PerIOBackendCycles float64
	// HypercallCycles is the physical cost charged to a guest domain per
	// I/O operation for its side of the split driver.
	HypercallCycles float64
	// FsyncBackendCycles is dom0 CPU per synchronous journal flush: a
	// write transaction's fsync chain (guest fs journal -> blkback ->
	// barrier) is the reason bid-heavy workloads demand slightly more
	// physical resources than browse-heavy ones (paper §4.1).
	FsyncBackendCycles float64
	// FsyncBytes is the journal block written per fsync.
	FsyncBytes float64

	// BlkReadAmplification and BlkWriteAmplification scale guest disk
	// bytes into dom0 physical disk bytes (readahead; journaling and
	// metadata writes).
	BlkReadAmplification  float64
	BlkWriteAmplification float64

	// NetBridgeFactor scales guest NIC bytes into dom0-visible bridge
	// traffic. Inter-VM traffic stays on the bridge; external traffic
	// also crosses the physical NIC.
	NetBridgeFactor float64

	// Dom0BaseMemBytes is dom0's resident base (kernel, xenstored,
	// backends) before any I/O buffering.
	Dom0BaseMemBytes float64
	// Dom0BufferBytesPerKBEWMA grows dom0 grant/backend buffers with
	// the EWMA of the guest I/O byte rate (KB units).
	Dom0BufferBytesPerKBEWMA float64
	// Dom0PageCacheCeiling bounds dom0's own page cache (its logging and
	// management files), which warms up over a run.
	Dom0PageCacheCeiling float64
	// Dom0PageCacheFeed multiplies dom0's own disk traffic when warming
	// the page cache (re-reads, log rotation).
	Dom0PageCacheFeed float64
	// ShadowFractionOfGuestMem is the hypervisor-side per-VM memory
	// overhead (shadow/p2m structures) as a fraction of guest RAM.
	ShadowFractionOfGuestMem float64

	// Dom0OwnCyclesPerSecond is dom0's own management activity (xenstored,
	// console, periodic timers), charged independent of guest load.
	Dom0OwnCyclesPerSecond float64
	// Dom0OwnDiskBytesPerSecond is dom0's own logging rate.
	Dom0OwnDiskBytesPerSecond float64
	// Dom0OwnNetBytesPerSecond is dom0 management-plane traffic.
	Dom0OwnNetBytesPerSecond float64
}

// DefaultParams returns the calibrated cost model.
func DefaultParams() Params {
	return Params{
		Quantum:                   30 * sim.Millisecond,
		GuestVCPURate:             620e6,
		VirtCycleInflation:        19.5,
		NetbackCyclesPerByte:      11,
		BlkbackCyclesPerByte:      6,
		PerIOBackendCycles:        7e3,
		HypercallCycles:           2e3,
		FsyncBackendCycles:        150e3,
		FsyncBytes:                2048,
		BlkReadAmplification:      1.35,
		BlkWriteAmplification:     1.9,
		NetBridgeFactor:           0.985,
		Dom0BaseMemBytes:          744e6,
		Dom0BufferBytesPerKBEWMA:  42e3,
		Dom0PageCacheCeiling:      380e6,
		Dom0PageCacheFeed:         8,
		ShadowFractionOfGuestMem:  0.014,
		Dom0OwnCyclesPerSecond:    1.0e6,
		Dom0OwnDiskBytesPerSecond: 100e3,
		Dom0OwnNetBytesPerSecond:  9e3,
	}
}
