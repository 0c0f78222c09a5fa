package sysstat

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vwchar/internal/sim"
	"vwchar/internal/xen"
)

func TestCatalogHasExactly182Metrics(t *testing.T) {
	cat := catalog
	if len(cat) != CatalogSize {
		t.Fatalf("catalog has %d metrics, the paper profiles %d per instance", len(cat), CatalogSize)
	}
	names := make(map[string]bool)
	for _, m := range cat {
		if m.Name == "" || m.Description == "" {
			t.Fatalf("incomplete metric: %+v", m)
		}
		if names[m.Name] {
			t.Fatalf("duplicate metric %q", m.Name)
		}
		names[m.Name] = true
		if m.Eval == nil {
			t.Fatalf("metric %q has no evaluator", m.Name)
		}
	}
}

func TestTotalProfiledMetricsIs518(t *testing.T) {
	if got := TotalProfiledMetrics(); got != 518 {
		t.Fatalf("total = %d, paper profiles 518", got)
	}
}

func sampleSnapshots() (Snapshot, Snapshot) {
	prev := Snapshot{
		Cores: 2, FreqHz: 2.8e9,
		MemTotal: 2 << 30, MemUsed: 500e6, MemBuffers: 20e6, MemCached: 100e6,
	}
	cur := prev
	cur.CPUCycles = 1e9
	cur.CPUBusy = 800 * sim.Millisecond
	cur.StealTime = 40 * sim.Millisecond
	cur.DiskReadBytes = 1 << 20
	cur.DiskWriteBytes = 2 << 20
	cur.DiskReadOps = 10
	cur.DiskWriteOps = 20
	cur.DiskBusy = 100 * sim.Millisecond
	cur.NetRxBytes = 3 << 20
	cur.NetTxBytes = 4 << 20
	cur.NetRxPkts = 3000
	cur.NetTxPkts = 4000
	cur.CtxSwitches = 500
	cur.Interrupts = 400
	cur.Forks = 6
	cur.Faults = 100
	cur.MajFaults = 2
	cur.PgInBytes = 1 << 20
	cur.PgOutBytes = 2 << 20
	cur.Procs = 120
	cur.RunQueue = 3
	cur.Load1 = 1.5
	return prev, cur
}

func evalByName(t *testing.T, name string) float64 {
	t.Helper()
	prev, cur := sampleSnapshots()
	for _, m := range catalog {
		if m.Name == name {
			return m.Eval(&prev, &cur, 2)
		}
	}
	t.Fatalf("no metric %q", name)
	return 0
}

func TestMetricValues(t *testing.T) {
	if got := evalByName(t, "cswch/s"); got != 250 {
		t.Fatalf("cswch/s = %v", got)
	}
	if got := evalByName(t, "proc/s"); got != 3 {
		t.Fatalf("proc/s = %v", got)
	}
	// busy 0.8 s of 4 core-seconds = 20%; 78% of that is user time.
	if got := evalByName(t, "%user [all]"); got < 15 || got > 16 {
		t.Fatalf("%%user = %v", got)
	}
	if got := evalByName(t, "%steal [all]"); got <= 0 {
		t.Fatalf("%%steal = %v", got)
	}
	idle := evalByName(t, "%idle [all]")
	if idle <= 0 || idle >= 100 {
		t.Fatalf("%%idle = %v", idle)
	}
	if got := evalByName(t, "kbmemused"); got != 500e6/1024 {
		t.Fatalf("kbmemused = %v", got)
	}
	if got := evalByName(t, "rxkB/s [eth0]"); got != (3<<20)/1024/2 {
		t.Fatalf("rxkB/s = %v", got)
	}
	if got := evalByName(t, "rxkB/s [lo]"); got != 0 {
		t.Fatalf("rxkB/s [lo] = %v (loopback should be idle)", got)
	}
	if got := evalByName(t, "bread/s"); got != (1<<20)/512/2 {
		t.Fatalf("bread/s = %v", got)
	}
	if got := evalByName(t, "tps"); got != 15 {
		t.Fatalf("tps = %v", got)
	}
	if got := evalByName(t, "runq-sz"); got != 3 {
		t.Fatalf("runq-sz = %v", got)
	}
	if got := evalByName(t, "MHz"); got != 2800 {
		t.Fatalf("MHz = %v", got)
	}
	if got := evalByName(t, "pswpin/s"); got != 0 {
		t.Fatalf("pswpin/s = %v (testbed never swapped)", got)
	}
}

func TestCollectorProducesHeadlineSeries(t *testing.T) {
	k := sim.NewKernel()
	var cycles float64
	target := Target{Name: "vm", Snap: func() Snapshot {
		return Snapshot{
			Cores: 2, FreqHz: 2.8e9,
			CPUCycles: cycles, MemTotal: 2 << 30, MemUsed: 400e6,
		}
	}}
	c := NewCollector(k, false, target)
	c.Start()
	k.Every(sim.Second, sim.Second, func(sim.Time) { cycles += 5e8 })
	k.Run(20 * sim.Second)
	cpu := c.Series().ByName(CPU.Series("vm"))
	if cpu.Len() != 10 {
		t.Fatalf("cpu samples = %d, want 10", cpu.Len())
	}
	// ~1e9 cycles per 2 s sample.
	for i := 1; i < cpu.Len(); i++ {
		if cpu.At(i) != 1e9 {
			t.Fatalf("sample %d = %v", i, cpu.At(i))
		}
	}
	if mem := c.Series().ByName(RAM.Series("vm")); mem.At(0) != 400 {
		t.Fatalf("mem MB = %v", mem.At(0))
	}
	if n := c.Series().Windows(); n != 10 {
		t.Fatalf("Windows = %d", n)
	}
	if c.Series().ByName("vm/%user [all]") != nil {
		t.Fatal("full catalog was not recorded; its series should be absent")
	}
}

// TestCollectorOnSampleHook pins the telemetry seam: hooks fire once
// per collection round, after the resource snapshots, at exactly the
// sample times — so anything a hook emits is aligned with the resource
// series window for window.
func TestCollectorOnSampleHook(t *testing.T) {
	k := sim.NewKernel()
	target := Target{Name: "vm", Snap: func() Snapshot {
		return Snapshot{Cores: 2, FreqHz: 2.8e9, MemTotal: 1 << 30, MemUsed: 1 << 29}
	}}
	c := NewCollector(k, false, target)
	var times []sim.Time
	var sampleCountAtHook []int
	c.OnSample(func(now sim.Time) {
		times = append(times, now)
		sampleCountAtHook = append(sampleCountAtHook, c.Series().Windows())
	})
	order := 0
	c.OnSample(func(now sim.Time) { order++ })
	c.Start()
	k.Run(10 * sim.Second)
	if n := c.Series().Windows(); len(times) != n || n != 5 {
		t.Fatalf("hook fired %d times over %d samples", len(times), n)
	}
	for i, at := range times {
		if want := sim.Time(i+1) * SampleInterval; at != want {
			t.Fatalf("hook %d fired at %v, want %v", i, at, want)
		}
		// The round's resource samples land before the hook runs.
		if sampleCountAtHook[i] != i+1 {
			t.Fatalf("hook %d saw %d samples recorded, want %d", i, sampleCountAtHook[i], i+1)
		}
	}
	if order != 5 {
		t.Fatalf("second hook fired %d times", order)
	}
	if got := c.Series().ByName(CPU.Series("vm")).Len(); got != len(times) {
		t.Fatalf("resource series has %d samples vs %d hook firings", got, len(times))
	}
}

func TestCollectorFullCatalog(t *testing.T) {
	k := sim.NewKernel()
	target := Target{Name: "vm", Snap: func() Snapshot {
		return Snapshot{Cores: 2, FreqHz: 2.8e9, MemTotal: 1 << 30, MemUsed: 1 << 29}
	}}
	c := NewCollector(k, true, target)
	c.Start()
	k.Run(10 * sim.Second)
	s := c.Series().ByName("vm/%memused")
	if s == nil {
		t.Fatal("no vm/%memused series")
	}
	if s.Len() != 5 || s.At(0) != 50 {
		t.Fatalf("%%memused series: len=%d v0=%v", s.Len(), s.Values)
	}
	if c.Series().ByName("vm/no-such-metric") != nil {
		t.Fatal("unknown metric should have no series")
	}
	// Target-major: the four headline series, then the whole catalog.
	all := c.Series().All()
	if len(all) != len(Resources())+CatalogSize {
		t.Fatalf("%d series, want %d", len(all), len(Resources())+CatalogSize)
	}
	for i, r := range Resources() {
		if all[i].Name != r.Series("vm") {
			t.Fatalf("series %d = %q, want %q", i, all[i].Name, r.Series("vm"))
		}
	}
	if all[len(Resources())].Name != "vm/"+catalog[0].Name {
		t.Fatalf("first catalog series = %q", all[len(Resources())].Name)
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) == 0 {
		t.Fatal("empty Table 1")
	}
	sources := map[string]int{}
	for _, r := range rows {
		if r.Name == "" || r.Description == "" {
			t.Fatalf("incomplete row: %+v", r)
		}
		sources[r.Source]++
	}
	for _, src := range []string{"sysstat (hypervisor)", "sysstat (VM)", "perf (hypervisor)"} {
		if sources[src] == 0 {
			t.Fatalf("Table 1 missing source %q", src)
		}
	}
	var buf bytes.Buffer
	if err := WriteTable1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "518") {
		t.Fatal("Table 1 header should state the 518-metric inventory")
	}
	if !strings.Contains(out, "cswch/s") || !strings.Contains(out, "xen-hypercalls") {
		t.Fatal("Table 1 missing representative metrics")
	}
}

func TestPerfCatalogAccessibleForTable1(t *testing.T) {
	if len(xen.CatalogOnly()) != xen.PerfCounterCount {
		t.Fatal("perf catalog size mismatch")
	}
}

// TestSnapshotAddCoversEveryField gives every Snapshot field a distinct
// value by reflection and checks Add sums each one, except At (kept
// from the receiver) and FreqHz (taken from the argument). A field
// added to Snapshot later cannot silently drop out of the aggregates.
func TestSnapshotAddCoversEveryField(t *testing.T) {
	fill := func(base float64) Snapshot {
		var s Snapshot
		v := reflect.ValueOf(&s).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			x := base * float64(i+1)
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(x))
			case reflect.Uint64:
				f.SetUint(uint64(x))
			case reflect.Float64:
				f.SetFloat(x + 0.25)
			default:
				t.Fatalf("field %s has unhandled kind %s", v.Type().Field(i).Name, f.Kind())
			}
		}
		return s
	}
	a, b := fill(1), fill(1000)
	sum := a.Add(b)
	va, vb, vs := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(sum)
	for i := 0; i < vs.NumField(); i++ {
		name := vs.Type().Field(i).Name
		got, x, y := vs.Field(i), va.Field(i), vb.Field(i)
		var want any
		switch name {
		case "At":
			want = x.Interface()
		case "FreqHz":
			want = y.Interface()
		default:
			switch got.Kind() {
			case reflect.Int, reflect.Int64:
				want = reflect.ValueOf(x.Int() + y.Int()).Convert(got.Type()).Interface()
			case reflect.Uint64:
				want = reflect.ValueOf(x.Uint() + y.Uint()).Convert(got.Type()).Interface()
			case reflect.Float64:
				want = reflect.ValueOf(x.Float() + y.Float()).Convert(got.Type()).Interface()
			}
		}
		if got.Interface() != want {
			t.Errorf("Add: %s = %v, want %v", name, got.Interface(), want)
		}
	}
}

// newSampleRig builds a headline-only collector over three targets whose
// snapshots advance with every read, so each sample differences real
// deltas.
func newSampleRig(k *sim.Kernel) *Collector {
	var targets []Target
	for _, name := range []string{"web", "db", "dom0"} {
		var s Snapshot
		s.Cores, s.FreqHz, s.MemTotal = 2, 2.8e9, 2<<30
		targets = append(targets, Target{Name: name, Snap: func() Snapshot {
			s.CPUCycles += 1e9
			s.MemUsed += 4096
			s.DiskReadBytes += 8192
			s.NetTxBytes += 1500
			return s
		}})
	}
	return NewCollector(k, false, targets...)
}

// rewindSeries empties every series but keeps its capacity, so the
// next samples append without growing.
func rewindSeries(c *Collector) {
	for _, s := range c.Series().All() {
		s.Values = s.Values[:0]
	}
}

// TestCollectorSampleDoesNotAllocate pins the collector's steady state:
// once the series have grown, a collection round over several targets
// allocates nothing. Allocations are counted over a whole batch of
// rounds, so a per-target or per-round allocation cannot hide in a
// truncated average.
func TestCollectorSampleDoesNotAllocate(t *testing.T) {
	const rounds = 64
	c := newSampleRig(sim.NewKernel())
	for i := 0; i < rounds; i++ {
		c.sample(0)
	}
	allocs := testing.AllocsPerRun(3, func() {
		rewindSeries(c)
		for i := 0; i < rounds; i++ {
			c.sample(0)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations over %d collection rounds of 3 targets, want 0", allocs, rounds)
	}
}

// BenchmarkCollectorSample times one collection round over three targets
// with headline series only, rewinding the series every 1024 rounds so
// it measures sampling rather than slice growth.
func BenchmarkCollectorSample(b *testing.B) {
	c := newSampleRig(sim.NewKernel())
	for i := 0; i < 1024; i++ {
		c.sample(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			rewindSeries(c)
		}
		c.sample(0)
	}
}

// BenchmarkNewCollectorFullCatalog builds a collector over 12 targets
// with the full catalog kept: 12 x (4 headline + 182 catalog) = 2,232
// series registered in one set, each checked for a duplicate name.
func BenchmarkNewCollectorFullCatalog(b *testing.B) {
	k := sim.NewKernel()
	targets := make([]Target, 12)
	for i := range targets {
		targets[i] = Target{Name: fmt.Sprintf("vm%d", i), Snap: func() Snapshot { return Snapshot{Cores: 2, FreqHz: 2.8e9} }}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := NewCollector(k, true, targets...); len(c.Series().All()) != 12*(len(Resources())+CatalogSize) {
			b.Fatalf("%d series", len(c.Series().All()))
		}
	}
}
