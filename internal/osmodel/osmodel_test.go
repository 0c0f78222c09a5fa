package osmodel

import (
	"testing"
	"testing/quick"

	"vwchar/internal/hw"
	"vwchar/internal/sim"
)

func TestOSCounters(t *testing.T) {
	os := New(50)
	if os.Procs != 50 {
		t.Fatalf("base procs = %d", os.Procs)
	}
	os.Fork(8)
	if os.Procs != 58 || os.Forks != 8 {
		t.Fatalf("after fork: procs=%d forks=%d", os.Procs, os.Forks)
	}
	os.NoteContext(5)
	os.NoteInterrupts(3, 4)
	os.NoteFaults(10, 2)
	os.NotePaging(1000, 2000)
	if os.CtxSwitches != 5 || os.Interrupts != 3 || os.SoftIRQs != 4 {
		t.Fatal("context/interrupt counters wrong")
	}
	if os.Faults != 12 || os.MajFaults != 2 {
		t.Fatalf("faults: %d/%d", os.Faults, os.MajFaults)
	}
	if os.PgInBytes != 1000 || os.PgOutBytes != 2000 {
		t.Fatal("paging counters wrong")
	}
	os.NotePaging(-5, -5) // negative ignored
	if os.PgInBytes != 1000 || os.PgOutBytes != 2000 {
		t.Fatal("negative paging should be ignored")
	}
}

func TestLoadAvgConvergesTowardRunQueue(t *testing.T) {
	os := New(10)
	os.RunQueue = 4
	for i := 0; i < 300; i++ { // 600 s of 2 s ticks
		os.Tick(2 * sim.Second)
	}
	l1, l5, l15 := os.LoadAvg()
	if l1 < 3.5 || l1 > 4.5 {
		t.Fatalf("ldavg-1 = %v, want ~4", l1)
	}
	if l5 < 2.5 || l15 < 1 {
		t.Fatalf("slower averages should be converging: %v %v", l5, l15)
	}
	if !(l1 >= l5 && l5 >= l15) {
		t.Fatalf("rising load should order l1>=l5>=l15: %v %v %v", l1, l5, l15)
	}
	os.Tick(0) // no-op
}

func TestChunkAllocatorEscalatingThresholds(t *testing.T) {
	mem := hw.NewMemory(4 << 30)
	a := ChunkAllocator{
		Mem: mem, Label: "apache",
		Base: 100e6, Chunk: 50e6, Max: 300e6,
		Threshold: 4, Cooldown: 10 * sim.Second,
	}
	a.Init()
	if mem.Get("apache") != 100e6 {
		t.Fatal("Init should install base")
	}
	// Below first threshold: no growth.
	if a.Observe(sim.Second, 3) {
		t.Fatal("level 3 < threshold 4 should not grow")
	}
	// First growth at level 4.
	if !a.Observe(2*sim.Second, 4) {
		t.Fatal("level 4 should trigger first growth")
	}
	if got := a.Base + a.grown; got != 150e6 {
		t.Fatalf("size = %v", got)
	}
	// Second growth needs level 8, not 4.
	if a.Observe(30*sim.Second, 5) {
		t.Fatal("level 5 should not trigger second growth (needs 8)")
	}
	if !a.Observe(40*sim.Second, 8) {
		t.Fatal("level 8 should trigger second growth")
	}
	if a.Growths != 2 {
		t.Fatalf("Growths = %d", a.Growths)
	}
}

func TestChunkAllocatorCooldown(t *testing.T) {
	a := ChunkAllocator{
		Mem: hw.NewMemory(4 << 30), Label: "x",
		Base: 0, Chunk: 10e6, Max: 100e6,
		Threshold: 1, Cooldown: 60 * sim.Second,
	}
	a.Init()
	if !a.Observe(0, 1) {
		t.Fatal("first growth should fire")
	}
	if a.Observe(30*sim.Second, 10) {
		t.Fatal("growth during cooldown should be suppressed")
	}
	if !a.Observe(61*sim.Second, 2) {
		t.Fatal("growth after cooldown should fire")
	}
}

func TestChunkAllocatorRespectsMax(t *testing.T) {
	a := ChunkAllocator{
		Mem: hw.NewMemory(4 << 30), Label: "x",
		Base: 90e6, Chunk: 20e6, Max: 100e6,
		Threshold: 1,
	}
	a.Init()
	if a.Observe(0, 100) {
		t.Fatal("growth beyond Max should be refused")
	}
}

func TestChunkAllocatorAutoInit(t *testing.T) {
	mem := hw.NewMemory(4 << 30)
	a := ChunkAllocator{Mem: mem, Label: "x", Base: 5e6, Chunk: 1e6, Max: 10e6, Threshold: 1}
	a.Observe(0, 0) // triggers Init lazily
	if mem.Get("x") != 5e6 {
		t.Fatal("Observe should lazily Init")
	}
}

func TestPageCacheWarmsWithDiminishingMisses(t *testing.T) {
	mem := hw.NewMemory(4 << 30)
	pc := PageCache{Mem: mem, Label: "cache", Ceiling: 100e6}
	first := pc.Touch(10e6)
	if first != 10e6 {
		t.Fatalf("cold cache should miss everything, got %v", first)
	}
	var last float64
	for i := 0; i < 200; i++ {
		last = pc.Touch(10e6)
	}
	if last >= first {
		t.Fatalf("misses should shrink as cache warms: %v -> %v", first, last)
	}
	if pc.size > 100e6 {
		t.Fatalf("cache exceeded ceiling: %v", pc.size)
	}
	if mem.Get("cache") != pc.size {
		t.Fatal("memory label should track cache size")
	}
	if pc.Touch(0) != 0 || pc.Touch(-5) != 0 {
		t.Fatal("non-positive touches should miss nothing")
	}
}

// Property: cache size is monotone non-decreasing and bounded by the
// ceiling for any read sequence.
func TestPropertyPageCacheMonotoneBounded(t *testing.T) {
	f := func(reads []uint32) bool {
		pc := PageCache{Ceiling: 1e6}
		prev := 0.0
		for _, r := range reads {
			pc.Touch(float64(r))
			if pc.size < prev || pc.size > 1e6 {
				return false
			}
			prev = pc.size
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: allocator growth count is monotone in observed level
// sequence and never exceeds (Max-Base)/Chunk.
func TestPropertyAllocatorBounded(t *testing.T) {
	f := func(levels []uint8) bool {
		a := ChunkAllocator{
			Mem: hw.NewMemory(4 << 30), Label: "x",
			Base: 0, Chunk: 10, Max: 50, Threshold: 2,
		}
		a.Init()
		for i, l := range levels {
			a.Observe(sim.Time(i)*60*sim.Second, int(l))
		}
		return a.Growths <= 5 && a.Base+a.grown <= 50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
