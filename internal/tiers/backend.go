// Package tiers assembles the three-tier RUBiS deployment: the combined
// web+application server (Apache+PHP in the paper) and the database
// server (MySQL), running either inside VMs on a Xen host (virtualized
// experiments) or on two separate physical servers (non-virtualized
// experiments), plus the closed-loop client driver.
//
// All completion callbacks follow the sim kernel's closure-free
// (sim.Callback, arg) convention; per-request state is pooled so the
// steady-state request path schedules without heap allocations.
package tiers

import (
	"vwchar/internal/hw"
	"vwchar/internal/osmodel"
	"vwchar/internal/rng"
	"vwchar/internal/sim"
	"vwchar/internal/xen"
)

// Backend abstracts where a tier runs. CPU demand is expressed in the
// guest-visible (virtual) cycle scale used by the interaction cost
// models; each backend translates to its own accounting.
type Backend interface {
	// SubmitCPU schedules compute; done(arg) fires when it has executed.
	SubmitCPU(cycles float64, done sim.Callback, arg any)
	// DiskIO performs storage traffic (logical bytes).
	DiskIO(bytes float64, write bool, done sim.Callback, arg any)
	// NetExternal transfers bytes to/from clients outside the testbed.
	NetExternal(bytes float64, inbound bool, done sim.Callback, arg any)
	// Fsync performs n synchronous journal flushes (write transactions).
	Fsync(n int)
	// OS exposes the instance's kernel counters.
	OS() *osmodel.OS
	// Mem exposes the instance's memory view.
	Mem() *hw.Memory
}

// VMBackend runs a tier inside a Xen guest.
type VMBackend struct {
	HV  *xen.Hypervisor
	Dom *xen.Domain
}

// SubmitCPU implements Backend.
func (b *VMBackend) SubmitCPU(cycles float64, done sim.Callback, arg any) {
	b.Dom.CPU.Submit(cycles, done, arg)
	b.Dom.OS.NoteContext(2)
}

// DiskIO implements Backend.
func (b *VMBackend) DiskIO(bytes float64, write bool, done sim.Callback, arg any) {
	b.HV.GuestDiskIO(b.Dom, bytes, write, done, arg)
}

// NetExternal implements Backend.
func (b *VMBackend) NetExternal(bytes float64, inbound bool, done sim.Callback, arg any) {
	b.HV.GuestNetExternal(b.Dom, bytes, inbound, done, arg)
}

// Fsync implements Backend.
func (b *VMBackend) Fsync(n int) { b.HV.GuestFsync(b.Dom, n) }

// OS implements Backend.
func (b *VMBackend) OS() *osmodel.OS { return b.Dom.OS }

// Mem implements Backend.
func (b *VMBackend) Mem() *hw.Memory { return b.Dom.Mem }

// PMParams is the physical-deployment cost translation.
type PMParams struct {
	// CycleFactor converts virtual-scale cycles into physical cycles
	// executed on the bare-metal host. Non-virtualized servers pay more
	// physical CPU per request than a guest's physical share: the full
	// per-request network stack and interrupt path runs on the host,
	// and inter-tier traffic crosses a real wire instead of dom0's
	// batched memcpy path.
	CycleFactor float64
	// NetCyclesPerByte is host CPU burned per network byte.
	NetCyclesPerByte float64
	// DiskReadAmp and DiskWriteAmp scale logical to physical disk bytes
	// (filesystem metadata and journaling on the host's own fs).
	DiskReadAmp, DiskWriteAmp float64
	// DiskNoiseCV adds lognormal noise per disk op; the paper observes
	// visibly higher disk variance on physical servers.
	DiskNoiseCV float64
	// FlushInterval batches buffered writes into periodic bursts.
	FlushInterval sim.Time
	// WireLatency is the one-way inter-server latency.
	WireLatency sim.Time
}

// DefaultPMParams returns the calibrated physical cost translation for
// the given tier role.
func DefaultPMParams(role string) PMParams {
	p := PMParams{
		NetCyclesPerByte: 6,
		DiskReadAmp:      1.1,
		DiskWriteAmp:     1.1,
		DiskNoiseCV:      0.85,
		FlushInterval:    6 * sim.Second,
		WireLatency:      120 * sim.Microsecond,
	}
	switch role {
	case "db":
		p.CycleFactor = 0.44
		p.DiskReadAmp = 1.3
		p.DiskWriteAmp = 1.3
	default: // web
		p.CycleFactor = 0.13
		p.DiskReadAmp = 1.2
		p.DiskWriteAmp = 1.5
	}
	return p
}

// PMBackend runs a tier directly on a physical server.
type PMBackend struct {
	K      *sim.Kernel
	Server *hw.Server
	Peer   *hw.Server
	Params PMParams
	Noise  *rng.Stream
	osinst *osmodel.OS

	bufferedWrites float64
	fwdFree        sim.FreeList[pmFwd]
}

// pmFwd carries one inter-server transfer across its three stages (local
// NIC send, wire latency, peer NIC receive), recycled through a
// per-backend free list instead of two nested closures per transfer.
type pmFwd struct {
	b     *PMBackend
	bytes float64
	done  sim.Callback
	darg  any
}

// NewPMBackend wires a physical backend and starts its write flusher.
func NewPMBackend(k *sim.Kernel, srv, peer *hw.Server, params PMParams, noise *rng.Stream, os *osmodel.OS) *PMBackend {
	b := &PMBackend{K: k, Server: srv, Peer: peer, Params: params, Noise: noise, osinst: os}
	k.Every(params.FlushInterval, params.FlushInterval, b.flush)
	return b
}

func (b *PMBackend) flush(now sim.Time) {
	if b.bufferedWrites <= 0 {
		return
	}
	burst := b.bufferedWrites
	b.bufferedWrites = 0
	b.Server.Disk.Submit(burst, true, nil, nil)
	b.osinst.NotePaging(0, burst)
}

// SubmitCPU implements Backend.
func (b *PMBackend) SubmitCPU(cycles float64, done sim.Callback, arg any) {
	b.Server.CPU.Submit(cycles*b.Params.CycleFactor, done, arg)
	b.osinst.NoteContext(2)
}

// DiskIO implements Backend. Reads go straight to the device; writes are
// buffered (page cache) and flushed in periodic bursts, which is what
// gives physical servers their higher disk variance.
func (b *PMBackend) DiskIO(bytes float64, write bool, done sim.Callback, arg any) {
	if write {
		noisy := b.Noise.LogNormalMean(bytes*b.Params.DiskWriteAmp, b.Params.DiskNoiseCV)
		b.bufferedWrites += noisy
		if done != nil {
			b.K.AfterCall(200*sim.Microsecond, done, arg) // buffered write returns fast
		}
		return
	}
	noisy := b.Noise.LogNormalMean(bytes*b.Params.DiskReadAmp, b.Params.DiskNoiseCV)
	b.Server.Disk.Submit(noisy, false, done, arg)
	b.osinst.NotePaging(noisy, 0)
	b.osinst.NoteInterrupts(1, 2)
}

// NetExternal implements Backend.
func (b *PMBackend) NetExternal(bytes float64, inbound bool, done sim.Callback, arg any) {
	b.Server.CPU.Submit(bytes*b.Params.NetCyclesPerByte, nil, nil)
	b.osinst.NoteInterrupts(uint64(bytes/9000)+1, uint64(bytes/4500)+1)
	if inbound {
		b.Server.NIC.Receive(bytes, done, arg)
	} else {
		b.Server.NIC.Send(bytes, done, arg)
	}
}

// pmSent fires when the local NIC finished transmitting: start the wire
// latency leg.
func pmSent(arg any) {
	f := arg.(*pmFwd)
	f.b.K.AfterCall(f.b.Params.WireLatency, pmArrived, f)
}

// pmArrived fires when the transfer reaches the peer: charge its NIC and
// hand off the caller's completion, then recycle the forward slot.
func pmArrived(arg any) {
	f := arg.(*pmFwd)
	b := f.b
	b.Peer.NIC.Receive(f.bytes, f.done, f.darg)
	b.fwdFree.Put(f)
}

// NetToPeer transfers bytes to the peer server (PMPath wraps this).
// Both hosts' NICs and CPUs are charged; in the non-virtualized
// deployment inter-tier traffic is real wire traffic.
func (b *PMBackend) NetToPeer(bytes float64, done sim.Callback, arg any) {
	b.Server.CPU.Submit(bytes*b.Params.NetCyclesPerByte, nil, nil)
	b.Peer.CPU.Submit(bytes*b.Params.NetCyclesPerByte, nil, nil)
	b.osinst.NoteInterrupts(uint64(bytes/9000)+1, uint64(bytes/4500)+1)
	f := b.fwdFree.Get()
	f.b = b
	f.bytes = bytes
	f.done = done
	f.darg = arg
	b.Server.NIC.Send(bytes, pmSent, f)
}

// Fsync implements Backend: synchronous journal commits hit the host
// disk directly (seek-bound small writes).
func (b *PMBackend) Fsync(n int) {
	for i := 0; i < n; i++ {
		b.Server.Disk.Submit(4096, true, nil, nil)
	}
	b.osinst.NotePaging(0, float64(n)*4096)
	b.Server.CPU.Submit(float64(n)*60e3, nil, nil)
}

// OS implements Backend.
func (b *PMBackend) OS() *osmodel.OS { return b.osinst }

// Mem implements Backend.
func (b *PMBackend) Mem() *hw.Memory { return b.Server.Mem }
