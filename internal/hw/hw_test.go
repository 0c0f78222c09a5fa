package hw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vwchar/internal/sim"
)

func TestCPUSingleJobTiming(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, "c", 4, 1e9)
	var doneAt sim.Time
	cpu.Submit(2e9, func(any) { doneAt = k.Now() }, nil) // 2s of work on one core
	k.Run(sim.MaxTime)
	if doneAt != 2*sim.Second {
		t.Fatalf("done at %v, want 2s", doneAt)
	}
	if got := cpu.TotalCycles(); !almostEq(got, 2e9, 1) {
		t.Fatalf("TotalCycles = %v", got)
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCPUParallelJobsUseAllCores(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, "c", 4, 1e9)
	finish := make([]sim.Time, 4)
	for i := 0; i < 4; i++ {
		i := i
		cpu.Submit(1e9, func(any) { finish[i] = k.Now() }, nil)
	}
	k.Run(sim.MaxTime)
	for i, f := range finish {
		if f != sim.Second {
			t.Fatalf("job %d finished at %v, want 1s (4 cores, 4 jobs)", i, f)
		}
	}
}

func TestCPUOverloadSharesCapacity(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, "c", 2, 1e9)
	var finishes []sim.Time
	for i := 0; i < 4; i++ {
		cpu.Submit(1e9, func(any) { finishes = append(finishes, k.Now()) }, nil)
	}
	k.Run(sim.MaxTime)
	// 4 jobs on 2 cores: each runs at 0.5e9 cyc/s, so all finish at 2s.
	for _, f := range finishes {
		if f != 2*sim.Second {
			t.Fatalf("finish at %v, want 2s", f)
		}
	}
	if got := cpu.TotalCycles(); !almostEq(got, 4e9, 10) {
		t.Fatalf("TotalCycles = %v, want 4e9", got)
	}
}

func TestCPUSpeedScaling(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, "c", 1, 1e9)
	cpu.SetSpeed(0.5)
	var doneAt sim.Time
	cpu.Submit(1e9, func(any) { doneAt = k.Now() }, nil)
	k.Run(sim.MaxTime)
	if doneAt != 2*sim.Second {
		t.Fatalf("half-speed job done at %v, want 2s", doneAt)
	}
}

func TestCPUFreezeAndThaw(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, "c", 1, 1e9)
	var doneAt sim.Time
	cpu.Submit(1e9, func(any) { doneAt = k.Now() }, nil)
	k.AtCall(500*sim.Millisecond, func(any) { cpu.SetSpeed(0) }, nil)
	k.AtCall(1500*sim.Millisecond, func(any) { cpu.SetSpeed(1) }, nil)
	k.Run(sim.MaxTime)
	// 0.5s of work, 1s frozen, then remaining 0.5s: done at 2s.
	if doneAt != 2*sim.Second {
		t.Fatalf("frozen job done at %v, want 2s", doneAt)
	}
}

func TestCPUMidRunArrival(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, "c", 1, 1e9)
	var first, second sim.Time
	cpu.Submit(1e9, func(any) { first = k.Now() }, nil)
	k.AtCall(500*sim.Millisecond, func(any) {
		cpu.Submit(0.5e9, func(any) { second = k.Now() }, nil)
	}, nil)
	k.Run(sim.MaxTime)
	// After 0.5s: job1 has 0.5e9 left, job2 has 0.5e9; sharing one core
	// they both finish at 0.5 + 1.0 = 1.5s.
	if first != 1500*sim.Millisecond || second != 1500*sim.Millisecond {
		t.Fatalf("first=%v second=%v, want 1.5s both", first, second)
	}
}

func TestCPUBusyTimeAndUtilization(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, "c", 1, 1e9)
	cpu.Submit(1e9, nil, nil)
	k.Run(4 * sim.Second)
	if got := cpu.BusyTime(); got != sim.Second {
		t.Fatalf("BusyTime = %v, want 1s", got)
	}
}

func TestCPUConstructorValidation(t *testing.T) {
	k := sim.NewKernel()
	for _, fn := range []func(){
		func() { NewCPU(k, "x", 0, 1e9) },
		func() { NewCPU(k, "x", 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid CPU construction did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestDiskServiceTime(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "d", 4*sim.Millisecond, 100e6)
	var doneAt sim.Time
	d.Submit(100e6, false, func(any) { doneAt = k.Now() }, nil) // 1s transfer + 4ms
	k.Run(sim.MaxTime)
	if doneAt != sim.Second+4*sim.Millisecond {
		t.Fatalf("done at %v", doneAt)
	}
	if d.ReadBytes() != 100e6 || d.WrittenBytes() != 0 {
		t.Fatalf("counters: r=%v w=%v", d.ReadBytes(), d.WrittenBytes())
	}
	r, w := d.Ops()
	if r != 1 || w != 0 {
		t.Fatalf("ops: %d/%d", r, w)
	}
}

func TestDiskFIFOQueueing(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "d", 0, 100e6)
	var first, second sim.Time
	d.Submit(100e6, true, func(any) { first = k.Now() }, nil)
	d.Submit(100e6, true, func(any) { second = k.Now() }, nil)
	k.Run(sim.MaxTime)
	if first != sim.Second || second != 2*sim.Second {
		t.Fatalf("first=%v second=%v", first, second)
	}
}

func TestDiskAccount(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "d", 0, 100e6)
	d.Account(500, true)
	d.Account(300, false)
	d.Account(-10, true) // ignored
	if d.WrittenBytes() != 500 || d.ReadBytes() != 300 {
		t.Fatalf("account: r=%v w=%v", d.ReadBytes(), d.WrittenBytes())
	}
}

func TestNICTransferAndCounters(t *testing.T) {
	k := sim.NewKernel()
	n := NewNIC(k, "n", sim.Millisecond, 125e6)
	var sentAt, recvAt sim.Time
	n.Send(125e6, func(any) { sentAt = k.Now() }, nil)
	n.Receive(125e6, func(any) { recvAt = k.Now() }, nil)
	k.Run(sim.MaxTime)
	if sentAt != sim.Second+sim.Millisecond {
		t.Fatalf("sentAt = %v", sentAt)
	}
	if recvAt != sim.Second {
		t.Fatalf("recvAt = %v", recvAt)
	}
	if n.TxBytes() != 125e6 || n.RxBytes() != 125e6 {
		t.Fatalf("bytes: tx=%v rx=%v", n.TxBytes(), n.RxBytes())
	}
	rx, tx := n.Packets()
	if rx == 0 || tx == 0 {
		t.Fatal("packet counters should advance")
	}
}

func TestNICFullDuplex(t *testing.T) {
	k := sim.NewKernel()
	n := NewNIC(k, "n", 0, 125e6)
	var sentAt, recvAt sim.Time
	n.Send(125e6, func(any) { sentAt = k.Now() }, nil)
	n.Receive(125e6, func(any) { recvAt = k.Now() }, nil)
	k.Run(sim.MaxTime)
	// Full duplex: both directions complete at 1s, not serialized.
	if sentAt != sim.Second || recvAt != sim.Second {
		t.Fatalf("sent=%v recv=%v, want 1s both", sentAt, recvAt)
	}
}

func TestMemoryAccounting(t *testing.T) {
	m := NewMemory(1000)
	m.Set("app", 300)
	m.Add("cache", 200)
	if m.Used() != 500 {
		t.Fatalf("used=%v", m.Used())
	}
	m.Add("cache", -500)
	if m.Get("cache") != 0 {
		t.Fatal("negative component should clamp to 0")
	}
	m.Set("app", 5000)
	if m.Used() != 1000 {
		t.Fatalf("Used should clamp to capacity, got %v", m.Used())
	}
	m.Set("app", 0)
	if m.Get("app") != 0 {
		t.Fatal("Set(0) should clear")
	}
}

// TestMemoryUsedIsOrderIndependent pins Used to one summation order. The
// values are chosen so float addition order shows: 1e16+1+1 rounds to
// 1e16, while 1+1+1e16 is 1e16+2. Every insertion order of a label set,
// including labels cleared and set again, must give the same bits.
func TestMemoryUsedIsOrderIndependent(t *testing.T) {
	sets := [][]struct {
		label string
		bytes float64
	}{
		{{"base", 1e16}, {"shadow", 1}, {"backend-buffers", 1}},
		{{"kernel", 90e6}, {"pagecache", 0.1}, {"dbcache", 0.2}, {"app", 0.3}, {"x", 1e-9}},
	}
	r := rand.New(rand.NewSource(1))
	for si, set := range sets {
		var want float64
		for trial := 0; trial < 50; trial++ {
			m := NewMemory(1e18)
			for _, i := range r.Perm(len(set)) {
				m.Set(set[i].label, set[i].bytes)
			}
			// Clear and re-add one label: its slot must not move.
			victim := set[r.Intn(len(set))]
			m.Set(victim.label, 0)
			m.Add(victim.label, victim.bytes)
			got := m.Used()
			if trial == 0 {
				want = got
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("set %d trial %d: Used = %v (%x), want %v (%x)", si, trial, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if m.Used() != got {
				t.Fatalf("set %d: repeated Used differs", si)
			}
		}
	}
	m := NewMemory(1e18)
	m.Set("a", 1)
	m.Set("b", 2)
	if n := testing.AllocsPerRun(100, func() { _ = m.Used(); m.Set("a", 3); m.Add("b", 1) }); n != 0 {
		t.Fatalf("Used/Set/Add on known labels allocate %v per call", n)
	}
}

func TestServerSpec(t *testing.T) {
	spec := ProLiantSpec("host0")
	if spec.Cores != 8 || spec.FreqHz != 2.8e9 {
		t.Fatalf("spec CPU: %+v", spec)
	}
	if spec.RAMBytes != 32<<30 {
		t.Fatalf("spec RAM: %v", spec.RAMBytes)
	}
	k := sim.NewKernel()
	s := NewServer(k, spec)
	if s.CPU.cores != 8 || s.Mem.Capacity() != float64(32<<30) {
		t.Fatal("server devices do not match spec")
	}
}

// Property: cycle conservation — total cycles consumed equals total
// cycles submitted once all jobs drain, for any job mix.
func TestPropertyCPUCycleConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		k := sim.NewKernel()
		cpu := NewCPU(k, "c", 3, 1e9)
		total := 0.0
		done := 0
		for _, r := range raw {
			cycles := float64(r) * 1e5
			total += cycles
			cpu.Submit(cycles, func(any) { done++ }, nil)
		}
		k.Run(sim.MaxTime)
		if done != len(raw) {
			return false
		}
		return almostEq(cpu.TotalCycles(), total, 1e-3*total+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: disk byte counters equal the sum of submitted sizes, split
// by direction.
func TestPropertyDiskByteConservation(t *testing.T) {
	f := func(raw []uint16, dirs []bool) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		k := sim.NewKernel()
		d := NewDisk(k, "d", sim.Millisecond, 100e6)
		var reads, writes float64
		for i, r := range raw {
			write := i < len(dirs) && dirs[i]
			b := float64(r)
			if write {
				writes += b
			} else {
				reads += b
			}
			d.Submit(b, write, nil, nil)
		}
		k.Run(sim.MaxTime)
		return d.ReadBytes() == reads && d.WrittenBytes() == writes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
