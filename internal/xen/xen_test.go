package xen

import (
	"math"
	"testing"

	"vwchar/internal/hw"
	"vwchar/internal/sim"
)

func newTestHV(k *sim.Kernel) *Hypervisor {
	return New(k, hw.NewServer(k, hw.ProLiantSpec("host")), DefaultParams())
}

func TestCreateGuestValidation(t *testing.T) {
	k := sim.NewKernel()
	hv := newTestHV(k)
	g := hv.CreateGuest("vm1", 2, 2<<30, 256)
	if g.ID != 1 || g.VCPUs != 2 {
		t.Fatalf("guest: %+v", g)
	}
	if len(hv.guests) != 1 {
		t.Fatal("guest not registered")
	}
	for _, fn := range []func(){
		func() { hv.CreateGuest("bad", 0, 1, 1) },
		func() { hv.CreateGuest("bad", 1, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid guest did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestGuestLimitTen(t *testing.T) {
	k := sim.NewKernel()
	hv := newTestHV(k)
	for i := 0; i < 10; i++ {
		hv.CreateGuest("vm", 1, 1<<30, 128)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("11th guest should panic (testbed hosts up to ten)")
		}
	}()
	hv.CreateGuest("vm11", 1, 1<<30, 128)
}

func TestVirtVsPhysCycleAccounting(t *testing.T) {
	k := sim.NewKernel()
	hv := newTestHV(k)
	g := hv.CreateGuest("vm1", 2, 2<<30, 256)
	g.CPU.Submit(1e9, nil, nil)
	k.Run(10 * sim.Second)
	virt := g.VirtCycles()
	phys := g.PhysCycles()
	if math.Abs(virt-1e9) > 1 {
		t.Fatalf("VirtCycles = %v", virt)
	}
	want := 1e9 / DefaultParams().VirtCycleInflation
	if math.Abs(phys-want) > 1 {
		t.Fatalf("PhysCycles = %v, want %v", phys, want)
	}
	// dom0 cycles are physical (no inflation).
	hv.Dom0().CPU.Submit(1e6, nil, nil)
	k.Run(11 * sim.Second)
	if hv.Dom0().PhysCycles() < 1e6 {
		t.Fatalf("dom0 PhysCycles = %v", hv.Dom0().PhysCycles())
	}
}

func TestSplitDriverDiskRoutesThroughDom0(t *testing.T) {
	k := sim.NewKernel()
	hv := newTestHV(k)
	g := hv.CreateGuest("vm1", 2, 2<<30, 256)
	done := false
	hv.GuestDiskIO(g, 100<<10, true, func(any) { done = true }, nil)
	k.Run(10 * sim.Second)
	if !done {
		t.Fatal("disk completion never fired")
	}
	if g.DiskWrittenBytes != 100<<10 {
		t.Fatalf("guest counter = %v", g.DiskWrittenBytes)
	}
	// dom0 sees amplified physical bytes (plus its own logging).
	amp := DefaultParams().BlkWriteAmplification
	own := hv.Attribution().OwnDiskBytes
	if got := hv.Host().Disk.WrittenBytes() - own; math.Abs(got-float64(100<<10)*amp) > 1 {
		t.Fatalf("physical bytes = %v, want %v", got, float64(100<<10)*amp)
	}
	attr := hv.Attribution()
	if attr.BackendCycles <= 0 || attr.BackendDiskBytes <= 0 {
		t.Fatalf("backend attribution missing: %+v", attr)
	}
	// dom0 burned CPU for the backend work.
	if hv.Dom0().CPU.TotalCycles() <= 0 {
		t.Fatal("dom0 CPU should have executed blkback work")
	}
}

func TestSplitDriverNetExternal(t *testing.T) {
	k := sim.NewKernel()
	hv := newTestHV(k)
	g := hv.CreateGuest("vm1", 2, 2<<30, 256)
	done := 0
	hv.GuestNetExternal(g, 10000, true, func(any) { done++ }, nil)
	hv.GuestNetExternal(g, 5000, false, func(any) { done++ }, nil)
	k.Run(10 * sim.Second)
	if done != 2 {
		t.Fatalf("completions = %d", done)
	}
	if g.NetRxBytes != 10000 || g.NetTxBytes != 5000 {
		t.Fatalf("guest counters: rx=%v tx=%v", g.NetRxBytes, g.NetTxBytes)
	}
	factor := DefaultParams().NetBridgeFactor
	own := hv.Attribution().OwnNetBytes / 2 // half of management traffic is rx
	if got := hv.Host().NIC.RxBytes() - own; math.Abs(got-10000*factor) > 1 {
		t.Fatalf("host rx = %v", got)
	}
}

func TestInterVMTrafficSkipsPhysicalNICButCountsOnVifs(t *testing.T) {
	k := sim.NewKernel()
	hv := newTestHV(k)
	web := hv.CreateGuest("web", 2, 2<<30, 256)
	db := hv.CreateGuest("db", 2, 2<<30, 256)
	done := false
	hv.GuestNetInterVM(web, db, 1000, func(any) { done = true }, nil)
	k.Run(10 * sim.Second)
	if !done {
		t.Fatal("inter-VM transfer never completed")
	}
	if web.NetTxBytes != 1000 || db.NetRxBytes != 1000 {
		t.Fatal("guest vif counters should advance")
	}
	// dom0's sar view counts bridge traffic once per vif (management
	// traffic excluded).
	own := hv.Attribution().OwnNetBytes
	if got := hv.Host().NIC.RxBytes() + hv.Host().NIC.TxBytes() - own; got != 2000 {
		t.Fatalf("dom0 bridge accounting = %v, want 2000", got)
	}
	if hv.Attribution().BackendNetBytes != 2000 {
		t.Fatalf("backend net attribution = %v", hv.Attribution().BackendNetBytes)
	}
}

func TestGuestFsyncChargesDom0(t *testing.T) {
	k := sim.NewKernel()
	hv := newTestHV(k)
	g := hv.CreateGuest("db", 2, 2<<30, 256)
	before := hv.Attribution()
	hv.GuestFsync(g, 3)
	hv.GuestFsync(g, 0) // no-op
	k.Run(10 * sim.Second)
	after := hv.Attribution()
	wantCycles := 3 * DefaultParams().FsyncBackendCycles
	if got := after.BackendCycles - before.BackendCycles; math.Abs(got-wantCycles) > 1 {
		t.Fatalf("fsync backend cycles = %v, want %v", got, wantCycles)
	}
	if g.DiskOps != 3 {
		t.Fatalf("guest fsync ops = %d", g.DiskOps)
	}
}

func TestCreditSchedulerNoContentionFullSpeed(t *testing.T) {
	k := sim.NewKernel()
	hv := newTestHV(k)
	g := hv.CreateGuest("vm1", 2, 2<<30, 256)
	var doneAt sim.Time
	// 620e6 virtual cycles = 1 s on one VCPU at the default rate.
	g.CPU.Submit(DefaultParams().GuestVCPURate, func(any) { doneAt = k.Now() }, nil)
	k.Run(10 * sim.Second)
	if doneAt == 0 {
		t.Fatal("job never completed")
	}
	// Under no contention the scheduler should not throttle: completion
	// within a quantum of the ideal 1 s.
	if doneAt > sim.Second+2*DefaultParams().Quantum {
		t.Fatalf("uncontended job done at %v, want ~1 s", doneAt)
	}
	if g.StealTime() > 0 {
		t.Fatalf("uncontended guest has steal time %v", g.StealTime())
	}
}

func TestCreditSchedulerContentionProportionalToWeight(t *testing.T) {
	k := sim.NewKernel()
	host := hw.NewServer(k, hw.Spec{
		Name: "small", Cores: 2, FreqHz: 1e9, RAMBytes: 32 << 30,
		DiskSeek: sim.Millisecond, DiskBytesPerS: 100e6,
		NICLatency: sim.Microsecond, NICBytesPerS: 125e6,
	})
	params := DefaultParams()
	params.GuestVCPURate = 1e9
	hv := New(k, host, params)
	heavy := hv.CreateGuest("heavy", 2, 1<<30, 512)
	light := hv.CreateGuest("light", 2, 1<<30, 128)
	// Both domains demand 2 cores on a 2-core host: heavy should get
	// ~4/5 of capacity (512 vs 128 weights).
	var heavyDone, lightDone sim.Time
	for i := 0; i < 2; i++ {
		heavy.CPU.Submit(4e9, func(any) { heavyDone = k.Now() }, nil)
		light.CPU.Submit(4e9, func(any) { lightDone = k.Now() }, nil)
	}
	k.Run(120 * sim.Second)
	if heavyDone >= lightDone {
		t.Fatalf("heavier-weighted domain finished later: heavy=%v light=%v", heavyDone, lightDone)
	}
	if light.StealTime() <= heavy.StealTime() {
		t.Fatalf("light domain should accumulate more steal: %v vs %v",
			light.StealTime(), heavy.StealTime())
	}
}

func TestPerfCountersCatalog(t *testing.T) {
	if got := len(CatalogOnly()); got != PerfCounterCount {
		t.Fatalf("perf catalog has %d counters, want %d", got, PerfCounterCount)
	}
	names := make(map[string]bool)
	for _, c := range CatalogOnly() {
		if names[c.Name] {
			t.Fatalf("duplicate counter %q", c.Name)
		}
		names[c.Name] = true
		if c.Description == "" {
			t.Fatalf("counter %q lacks a description", c.Name)
		}
	}
}

func TestPerfCountersDeriveFromActivity(t *testing.T) {
	k := sim.NewKernel()
	hv := newTestHV(k)
	g := hv.CreateGuest("vm1", 2, 2<<30, 256)
	g.CPU.Submit(1e9, nil, nil)
	hv.GuestDiskIO(g, 8192, false, nil, nil)
	k.Run(20 * sim.Second)
	counters := hv.PerfCounters()
	if len(counters) != PerfCounterCount {
		t.Fatalf("live counters = %d", len(counters))
	}
	byName := map[string]float64{}
	for _, c := range counters {
		byName[c.Name] = c.Value
	}
	if byName["cycles"] <= 0 {
		t.Fatal("cycles should be positive after activity")
	}
	if byName["instructions"] <= byName["branch-misses"] {
		t.Fatal("instruction hierarchy violated")
	}
	if byName["xen-sched-runs"] <= 0 {
		t.Fatal("scheduler runs should be counted")
	}
	if byName["xen-hypercalls"] <= 0 {
		t.Fatal("hypercalls should be counted after guest I/O")
	}
	// Empty VM slots read zero.
	if byName["dom5-runstate-running-ms"] != 0 {
		t.Fatal("empty slot should read 0")
	}
	if byName["dom1-runstate-running-ms"] <= 0 {
		t.Fatal("busy guest slot should be positive")
	}
}

func TestDom0OwnActivityAccumulates(t *testing.T) {
	k := sim.NewKernel()
	hv := newTestHV(k)
	k.Run(30 * sim.Second)
	attr := hv.Attribution()
	if attr.OwnCycles <= 0 || attr.OwnDiskBytes <= 0 || attr.OwnNetBytes <= 0 {
		t.Fatalf("dom0 own activity missing: %+v", attr)
	}
	if attr.BackendCycles != 0 {
		t.Fatal("no guests ran: backend should be zero")
	}
	// dom0 memory includes base plus warming page cache.
	if hv.Dom0().Mem.Used() < DefaultParams().Dom0BaseMemBytes {
		t.Fatal("dom0 memory below base")
	}
}
