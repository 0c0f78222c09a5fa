package characterize

import (
	"bytes"
	"strings"
	"testing"

	"vwchar/internal/experiment"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
)

func shortRun(t *testing.T, env experiment.Env, mix experiment.MixKind, seed uint64) *experiment.Result {
	t.Helper()
	cfg := experiment.DefaultConfig(env, mix)
	cfg.Clients = 250
	cfg.Duration = 120 * sim.Second
	cfg.Seed = seed
	cfg.Dataset = rubis.DatasetConfig{
		Regions: 20, Categories: 10, Users: 2000,
		ActiveItems: 600, OldItems: 1000,
		BidsPerItem: 4, CommentsPerUser: 1, BufferPages: 220,
	}
	r, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// The four runs are expensive; build them once for the whole package.
var (
	virtBrowse, virtBid, physBrowse, physBid *experiment.Result
)

func results(t *testing.T) (vb, vd, pb, pd *experiment.Result) {
	t.Helper()
	if virtBrowse == nil {
		virtBrowse = shortRun(t, experiment.Virtualized, experiment.MixBrowsing, 42)
		virtBid = shortRun(t, experiment.Virtualized, experiment.MixBidding, 43)
		physBrowse = shortRun(t, experiment.Physical, experiment.MixBrowsing, 142)
		physBid = shortRun(t, experiment.Physical, experiment.MixBidding, 143)
	}
	return virtBrowse, virtBid, physBrowse, physBid
}

func TestTierRatiosDirection(t *testing.T) {
	vb, _, _, _ := results(t)
	r := TierRatios(vb)
	// §4.1: the front end demands several times more of everything.
	if r.CPU < 2 {
		t.Fatalf("cpu tier ratio = %v, front end should dominate", r.CPU)
	}
	if r.RAM < 1 {
		t.Fatalf("ram tier ratio = %v", r.RAM)
	}
	if r.Network < 10 {
		t.Fatalf("net tier ratio = %v, paper reports 55x", r.Network)
	}
}

func TestVMToDom0Direction(t *testing.T) {
	vb, _, _, _ := results(t)
	r := VMToDom0Ratios(vb)
	// CPU: VM virtual-cycle counters dwarf dom0 (paper 16.84).
	if r.CPU < 5 {
		t.Fatalf("vm/dom0 cpu = %v", r.CPU)
	}
	// RAM and disk: dom0 exceeds the VM aggregate (paper 0.58, 0.47).
	if r.RAM >= 1 {
		t.Fatalf("vm/dom0 ram = %v, dom0 should be bigger", r.RAM)
	}
	if r.Disk >= 1 {
		t.Fatalf("vm/dom0 disk = %v, dom0 does the real I/O", r.Disk)
	}
	// Network: roughly one-to-one (paper 0.98).
	if r.Network < 0.7 || r.Network > 1.4 {
		t.Fatalf("vm/dom0 net = %v", r.Network)
	}
}

func TestEnvAggregateDirection(t *testing.T) {
	vb, _, pb, _ := results(t)
	r := EnvAggregateRatios(vb, pb)
	// Non-virt needs several times dom0's CPU (paper 3.47).
	if r.CPU < 1.5 {
		t.Fatalf("env cpu ratio = %v", r.CPU)
	}
	// RAM and network roughly equal; disk lower non-virt.
	if r.RAM < 0.5 || r.RAM > 2 {
		t.Fatalf("env ram ratio = %v", r.RAM)
	}
	if r.Disk >= 1.2 {
		t.Fatalf("env disk ratio = %v, non-virt should not exceed dom0", r.Disk)
	}
}

func TestPhysicalDeltaDirections(t *testing.T) {
	vb, _, pb, _ := results(t)
	d := PhysicalDelta(vb, pb)
	// Paper: non-virt demands more physical CPU/RAM/net, less disk.
	if d.CPU <= 0 {
		t.Fatalf("cpu delta = %v, non-virt should demand more", d.CPU)
	}
	if d.Disk >= 0.2 {
		t.Fatalf("disk delta = %v, non-virt should not demand much more disk", d.Disk)
	}
	if d.Network < -0.3 || d.Network > 0.3 {
		t.Fatalf("net delta = %v, should be near zero", d.Network)
	}
}

func TestTierLagBounded(t *testing.T) {
	vb, _, _, _ := results(t)
	lag := TierLag(vb)
	if lag.LagSamples < 0 || lag.LagSamples > 10 {
		t.Fatalf("lag = %d samples", lag.LagSamples)
	}
	if lag.Correlation <= 0 {
		t.Fatalf("tiers should be positively correlated, got %v", lag.Correlation)
	}
	if lag.LagSeconds != float64(lag.LagSamples)*2 {
		t.Fatal("seconds/samples inconsistent")
	}
}

func TestRAMJumpDetectionOnRealTraces(t *testing.T) {
	vb, _, _, _ := results(t)
	jumps := RAMJumps(vb, experiment.TierWeb)
	for _, j := range jumps {
		if j.Magnitude() < 50 {
			t.Fatalf("detected jump below threshold: %+v", j)
		}
	}
	// FirstJumpTime agrees with RAMJumps.
	ft := FirstJumpTime(vb)
	if len(jumps) == 0 && ft != -1 {
		t.Fatalf("no jumps but FirstJumpTime = %v", ft)
	}
	if len(jumps) > 0 && ft < 0 {
		t.Fatal("jumps exist but FirstJumpTime negative")
	}
}

func TestDiskVarianceComparison(t *testing.T) {
	vb, _, pb, _ := results(t)
	virtCoV := DiskVariance(vb, experiment.TierWeb)
	physCoV := DiskVariance(pb, experiment.TierWeb)
	// Both traces are strongly bursty; the phys>virt ordering the paper
	// reports emerges at the full 600-sample scale and is too noisy to
	// assert on this shortened run.
	if virtCoV <= 0 || physCoV <= 0 {
		t.Fatalf("CoVs: virt=%v phys=%v", virtCoV, physCoV)
	}
}

func TestBuildAndWriteReport(t *testing.T) {
	vb, vd, pb, pd := results(t)
	rep := BuildReport(vb, vd, pb, pd)
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Front-end / back-end", "VM aggregate / dom0",
		"Non-virtualized / virtualized", "Physical-demand delta",
		"6.11", "16.84", "3.47", "88%",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestResourcesAndGet(t *testing.T) {
	r := Ratios{CPU: 1, RAM: 2, Disk: 3, Network: 4}
	if r.Get(CPU) != 1 || r.Get(RAM) != 2 || r.Get(Disk) != 3 || r.Get(Network) != 4 {
		t.Fatal("Get mapping broken")
	}
	if r.Get(Resource("x")) != 0 {
		t.Fatal("unknown resource should be 0")
	}
}
