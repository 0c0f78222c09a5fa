package xen

import (
	"fmt"

	"vwchar/internal/hw"
	"vwchar/internal/osmodel"
	"vwchar/internal/sim"
)

// Domain is one Xen domain: dom0 or a paravirtualized guest.
type Domain struct {
	ID     int
	Weight int
	VCPUs  int

	// CPU executes the domain's work. For guests, submitted cycles are
	// in the guest-visible (virtual-time) scale; PhysCycles deflates
	// them. For dom0 the scales coincide.
	CPU *hw.CPU
	// Mem is the domain's allocation-local memory view.
	Mem *hw.Memory
	// OS carries the guest kernel's activity counters.
	OS *osmodel.OS

	hv *Hypervisor

	// Guest-visible I/O counters (what sysstat inside the VM reports).
	DiskReadBytes    float64
	DiskWrittenBytes float64
	NetRxBytes       float64
	NetTxBytes       float64
	DiskOps          uint64

	// hypercallPhys accumulates physical cycles charged for the guest
	// side of split-driver operations.
	hypercallPhys float64
	// stealTime accumulates time runnable-but-not-running.
	stealTime sim.Time

	ioKBEWMA float64
}

// VirtCycles reports the guest-visible cumulative cycle counter.
func (d *Domain) VirtCycles() float64 { return d.CPU.TotalCycles() }

// PhysCycles reports the physical cycles the hypervisor charges to this
// domain: executed cycles deflated by the virtual-time inflation, plus
// hypercall work.
func (d *Domain) PhysCycles() float64 {
	infl := d.hv.params.VirtCycleInflation
	if d.ID == 0 || infl <= 0 {
		infl = 1
	}
	return d.CPU.TotalCycles()/infl + d.hypercallPhys
}

// StealTime reports cumulative runnable-but-descheduled time.
func (d *Domain) StealTime() sim.Time { return d.stealTime }

// Hypervisor owns a physical server and schedules domains onto it.
type Hypervisor struct {
	k      *sim.Kernel
	host   *hw.Server
	params Params

	dom0   *Domain
	guests []*Domain

	// dom0 attribution split: backend work is caused
	// by guest I/O; own work is management activity.
	dom0BackendCycles    float64
	dom0OwnCycles        float64
	dom0BackendDiskBytes float64
	dom0OwnDiskBytes     float64
	dom0BackendNetBytes  float64
	dom0OwnNetBytes      float64

	dom0PageCache osmodel.PageCache
	perf          perfState

	// fwdFree recycles split-driver forwarding state (see io.go).
	fwdFree sim.FreeList[ioFwd]
	// Quantum-scheduler scratch, reused across ticks so the hottest
	// ticker in the system allocates nothing in steady state.
	schedEntries []schedEntry
	schedAlloc   []float64
	schedRemain  []bool
}

// schedEntry is one runnable domain in a quantum scheduling pass.
type schedEntry struct {
	d      *Domain
	demand float64 // cores wanted this quantum
}

// New builds a hypervisor on host with the given parameters. dom0 is
// created implicitly with weight 512 and 2 VCPUs, as on the testbed.
func New(k *sim.Kernel, host *hw.Server, params Params) *Hypervisor {
	hv := &Hypervisor{k: k, host: host, params: params}
	dom0Mem := hw.NewMemory(4 << 30)
	hv.dom0 = &Domain{
		ID:     0,
		Weight: 512,
		VCPUs:  2,
		CPU:    hw.NewCPU(k, "dom0.cpu", 2, host.Spec.FreqHz),
		Mem:    dom0Mem,
		OS:     osmodel.New(95),
		hv:     hv,
	}
	hv.dom0.Mem.Set("base", params.Dom0BaseMemBytes)
	hv.dom0PageCache = osmodel.PageCache{
		Mem:     hv.dom0.Mem,
		Label:   "pagecache",
		Ceiling: params.Dom0PageCacheCeiling,
	}
	k.Every(params.Quantum, params.Quantum, hv.schedule)
	k.Every(sim.Second, sim.Second, hv.dom0OwnActivity)
	return hv
}

// Host exposes the underlying physical server.
func (hv *Hypervisor) Host() *hw.Server { return hv.host }

// Dom0 exposes the privileged domain.
func (hv *Hypervisor) Dom0() *Domain { return hv.dom0 }

// CreateGuest boots a guest domain with the given VCPU count, memory
// allocation, and scheduler weight (testbed default: 2 VCPUs, 2 GB).
func (hv *Hypervisor) CreateGuest(name string, vcpus int, memBytes float64, weight int) *Domain {
	if vcpus <= 0 || memBytes <= 0 {
		panic(fmt.Sprintf("xen: guest %q needs positive vcpus and memory", name))
	}
	if len(hv.guests) >= 10 {
		panic("xen: testbed hosts at most 10 VMs per server")
	}
	mem := hw.NewMemory(memBytes)
	d := &Domain{
		ID:     len(hv.guests) + 1,
		Weight: weight,
		VCPUs:  vcpus,
		CPU:    hw.NewCPU(hv.k, name+".vcpu", vcpus, hv.params.GuestVCPURate),
		Mem:    mem,
		OS:     osmodel.New(80),
		hv:     hv,
	}
	hv.guests = append(hv.guests, d)
	// Shadow/p2m overhead lives in dom0's attribution of physical RAM.
	hv.dom0.Mem.Add("shadow", memBytes*hv.params.ShadowFractionOfGuestMem)
	return d
}

// schedule is the credit scheduler quantum: distribute physical cores
// among runnable domains proportionally to weight, capped by each
// domain's demand, then throttle domain CPUs accordingly.
func (hv *Hypervisor) schedule(now sim.Time) {
	entries := hv.schedEntries[:0]
	totalWeight := 0.0
	appendEntry := func(d *Domain) {
		demand := float64(d.CPU.Active())
		if demand > float64(d.VCPUs) {
			demand = float64(d.VCPUs)
		}
		if demand > 0 {
			entries = append(entries, schedEntry{d, demand})
			totalWeight += float64(d.Weight)
		} else {
			d.CPU.SetSpeed(1) // idle domains get full speed on wakeup
		}
	}
	appendEntry(hv.dom0)
	for _, d := range hv.guests {
		appendEntry(d)
	}
	hv.schedEntries = entries[:0]
	if len(entries) == 0 {
		return
	}
	free := float64(hv.host.Spec.Cores)
	alloc := hv.schedAlloc[:0]
	remaining := hv.schedRemain[:0]
	// Progressive filling: satisfy capped domains and redistribute.
	for range entries {
		alloc = append(alloc, 0)
		remaining = append(remaining, true)
	}
	hv.schedAlloc = alloc[:0]
	hv.schedRemain = remaining[:0]
	for pass := 0; pass < len(entries); pass++ {
		weightSum := 0.0
		for i, e := range entries {
			if remaining[i] {
				weightSum += float64(e.d.Weight)
			}
		}
		if weightSum == 0 || free <= 1e-12 {
			break
		}
		progress := false
		for i, e := range entries {
			if !remaining[i] {
				continue
			}
			share := free * float64(e.d.Weight) / weightSum
			if share >= e.demand-alloc[i] {
				grant := e.demand - alloc[i]
				alloc[i] += grant
				free -= grant
				remaining[i] = false
				progress = true
			}
		}
		if !progress {
			// No domain is satisfiable: split what is left by weight.
			for i, e := range entries {
				if remaining[i] {
					grant := free * float64(e.d.Weight) / weightSum
					alloc[i] += grant
				}
			}
			free = 0
			break
		}
	}
	for i, e := range entries {
		speed := alloc[i] / e.demand // demand > 0 here
		if speed > 1 {
			speed = 1
		}
		e.d.CPU.SetSpeed(speed)
		if gap := e.demand - alloc[i]; gap > 1e-12 {
			e.d.stealTime += sim.Time(gap / e.demand * float64(hv.params.Quantum))
		}
		// Each runnable VCPU incurs a scheduling context switch.
		hv.perf.ContextSwitches += uint64(e.demand + 0.5)
	}
	hv.perf.SchedRuns++
}

// dom0OwnActivity injects dom0's management-plane load once per second.
func (hv *Hypervisor) dom0OwnActivity(now sim.Time) {
	p := hv.params
	hv.dom0.CPU.Submit(p.Dom0OwnCyclesPerSecond, nil, nil)
	hv.dom0OwnCycles += p.Dom0OwnCyclesPerSecond
	hv.host.Disk.Account(p.Dom0OwnDiskBytesPerSecond, true)
	hv.dom0OwnDiskBytes += p.Dom0OwnDiskBytesPerSecond
	hv.dom0PageCache.Touch(p.Dom0OwnDiskBytesPerSecond * p.Dom0PageCacheFeed)
	hv.dom0OwnNetBytes += p.Dom0OwnNetBytesPerSecond
	hv.host.NIC.Account(p.Dom0OwnNetBytesPerSecond/2, p.Dom0OwnNetBytesPerSecond/2)
	hv.dom0.OS.NoteContext(140)
	hv.dom0.OS.NoteInterrupts(95, 60)
	// Refresh backend buffer sizing from the guest I/O byte-rate EWMA.
	kb := 0.0
	for _, g := range hv.guests {
		g.ioKBEWMA *= 0.8
		kb += g.ioKBEWMA
	}
	hv.dom0.Mem.Set("backend-buffers", kb*p.Dom0BufferBytesPerKBEWMA)
}

// Dom0Attribution reports the backend/own split of dom0's activity.
type Dom0Attribution struct {
	BackendCycles, OwnCycles       float64
	BackendDiskBytes, OwnDiskBytes float64
	BackendNetBytes, OwnNetBytes   float64
}

// Attribution returns the current dom0 attribution counters.
func (hv *Hypervisor) Attribution() Dom0Attribution {
	return Dom0Attribution{
		BackendCycles:    hv.dom0BackendCycles,
		OwnCycles:        hv.dom0OwnCycles,
		BackendDiskBytes: hv.dom0BackendDiskBytes,
		OwnDiskBytes:     hv.dom0OwnDiskBytes,
		BackendNetBytes:  hv.dom0BackendNetBytes,
		OwnNetBytes:      hv.dom0OwnNetBytes,
	}
}

// GuestPhysCycles sums the physical cycles charged to all guests.
func (hv *Hypervisor) GuestPhysCycles() float64 {
	total := 0.0
	for _, g := range hv.guests {
		total += g.PhysCycles()
	}
	return total
}
