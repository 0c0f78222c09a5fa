package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"strings"
	"testing"

	"vwchar/internal/cachetier"
	"vwchar/internal/faults"
	"vwchar/internal/load"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/sysstat"
	"vwchar/internal/tiers"
	"vwchar/internal/timeseries"
)

// assemblyGoldenSHA256 pins what Run assembles for seven deployment
// shapes: the value bits of every collector target's full catalog, the
// primary driver's window-series CSV, and every scalar Result field.
// The sweep-level golden hashes cover the paper grid and three feature
// sweeps through aggregated tables; these pin the per-target catalogs
// (cluster aggregates, consolidated dom0, physical hosts, aux tiers)
// and the end-of-run accounting of each shape directly.
//
// If a PR intentionally changes model behaviour, regenerate with
//
//	go test ./internal/experiment -run TestAssemblyMatchesGoldenHash -v
//
// and update the constants alongside an explanation of what moved.
var assemblyGoldenSHA256 = map[string]string{
	"paper-pair":          "ddcd091249bbeb7b991bd24ef334a9335c7ca0e854cac0df8e058ad1bb3637fa",
	"physical":            "180e9a602f69b858e8bf964d14ce31e810db648f5b5b0fc20172d35bd2785e2c",
	"physical-resilience": "997d1ca508d5eb9dee6bb6816c3a65d2f81115dc943c61d01490be119d955f60",
	"pairs-3":             "64f15c336f65ded85118a2f665f9e98748e9b266bb49c889d98b81c73a2301cc",
	"degenerate-aux":      "8614de1220d855c5fe5a82360fcd4b89e2a67a7bb4eb4b61335518d19f139565",
	"cluster-aux":         "bf4770b6803198af1ffd4ed09a26096cc4f96599073509572c4529e89fc6b3f8",
	"chaos":               "1786656241b70f598121fdb525128d084104f8beb3013005db1476ab28aefc69",
}

// tinyAssemblyConfig is a 20-second, tiny-dataset run recording the
// full catalog. Every shape shares one DatasetSeed, so the suite
// populates one golden dataset.
func tinyAssemblyConfig(env Env) Config {
	cfg := DefaultConfig(env, MixBidding)
	cfg.Clients = 20
	cfg.Duration = 20 * sim.Second
	cfg.Seed = 11
	cfg.DatasetSeed = 5
	cfg.KeepFullCatalog = true
	cfg.Dataset = rubis.DatasetConfig{
		Regions: 5, Categories: 5, Users: 200,
		ActiveItems: 80, OldItems: 120,
		BidsPerItem: 2, CommentsPerUser: 1, BufferPages: 64,
	}
	return cfg
}

// clusterTopology is the 2-machine cluster the aux and chaos shapes
// run on: 2 of 3 web replicas, one read replica, join-shortest-queue.
func clusterTopology() *tiers.Topology {
	return &tiers.Topology{
		WebReplicas:    2,
		MaxWebReplicas: 3,
		DBReadReplicas: 1,
		Machines:       2,
		LB:             tiers.LBJoinShortestQueue,
	}
}

// flashLoad is a short open-loop flash crowd: an 8x spike at t=6 s.
func flashLoad() *load.Spec {
	return &load.Spec{
		Kind: load.Spike, Rate: 6, SpikeFactor: 8,
		SpikeAt: 6, SpikeRamp: 2, SpikeHold: 6,
		SessionMean: 4, AbandonAfterSeconds: 2,
	}
}

// assemblyShapes returns the seven pinned deployment shapes in a fixed
// order.
func assemblyShapes() []struct {
	name string
	cfg  Config
} {
	paper := tinyAssemblyConfig(Virtualized)

	phys := tinyAssemblyConfig(Physical)

	physRes := tinyAssemblyConfig(Physical)
	physRes.Faults = &faults.Schedule{}
	physRes.Resilience = faults.DefaultResilience()

	pairs := tinyAssemblyConfig(Virtualized)
	pairs.Pairs = 3

	degAux := tinyAssemblyConfig(Virtualized)
	degAux.Cache = ptrSpec(cachetier.DefaultCacheSpec())
	degAux.Queue = ptrSpec(cachetier.DefaultQueueSpec())

	// The cluster shape runs the flash crowd so the autoscaler has a
	// spike to react to and the session accounting is pinned too.
	clusterAux := tinyAssemblyConfig(Virtualized)
	clusterAux.Topology = clusterTopology()
	clusterAux.Topology.Autoscaler = &tiers.AutoscalerSpec{
		SLOMillis: 5, ScaleUpWindows: 1, ScaleDownWindows: 3,
		CooldownSeconds: 4, BootSeconds: 2,
	}
	clusterAux.Load = flashLoad()
	clusterAux.Cache = ptrSpec(cachetier.DefaultCacheSpec())
	clusterAux.Queue = ptrSpec(cachetier.DefaultQueueSpec())

	chaos := tinyAssemblyConfig(Virtualized)
	chaos.Clients = 1000
	chaos.Topology = clusterTopology()
	chaos.Cache = ptrSpec(cachetier.DefaultCacheSpec())
	chaos.Faults = &faults.Schedule{
		WebCrash:   &faults.Component{AtSeconds: 4, MTTRSeconds: 3, Targets: []int{0}},
		DBCrash:    &faults.Component{AtSeconds: 8, Targets: []int{0}},
		CacheCrash: &faults.Component{AtSeconds: 6, MTTRSeconds: 2},
		Hazard:     &faults.HazardSpec{UtilThreshold: 0.01, CrashProb: 0.6, MTTRSeconds: 3, MaxCrashes: 1},
	}
	chaos.Resilience = faults.DefaultResilience()
	chaos.Resilience.FailoverDetectSeconds = 2
	chaos.Resilience.Breaker = &faults.BreakerSpec{ErrorThreshold: 0.5, WindowRequests: 16, OpenMillis: 500}
	chaos.Resilience.Brownout = &faults.BrownoutSpec{EnterUtil: 0.005, ExitUtil: 0.001, DropFraction: 0.5, MaxLevel: 2}

	return []struct {
		name string
		cfg  Config
	}{
		{"paper-pair", paper},
		{"physical", phys},
		{"physical-resilience", physRes},
		{"pairs-3", pairs},
		{"degenerate-aux", degAux},
		{"cluster-aux", clusterAux},
		{"chaos", chaos},
	}
}

// hashAssembly writes everything the golden pins about one result.
func hashAssembly(t *testing.T, h hash.Hash, r *Result) {
	t.Helper()
	var buf [8]byte
	// The catalog series, "<target>/<metric>", in set order: target
	// by target, each in catalog order. The headline series are not
	// pinned here.
	catalog := 0
	for _, s := range r.Resources.All() {
		if !strings.Contains(s.Name, "/") {
			continue
		}
		catalog++
		fmt.Fprintf(h, "%s:", s.Name)
		for _, v := range s.Values {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	if want := len(r.Tiers) * sysstat.CatalogSize; catalog != want {
		t.Fatalf("%d catalog series, want %d", catalog, want)
	}
	if err := timeseries.WriteTableCSV(h, r.Telemetry.All()...); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		v    any
	}{
		{"completed", r.Completed},
		{"errors", r.Errors},
		{"pairs", r.PairStats},
		{"requests", r.Requests},
		{"guard", r.Guard},
		{"failovers", r.Failovers},
		{"hazard", r.Hazard},
		{"brownout", r.Brownout},
		{"cache", r.Cache},
		{"queue", r.Queue},
		{"sessions", r.Sessions},
		{"scaling", r.Scaling},
		{"replica-served", r.ReplicaServed},
		{"per-interaction", r.PerInteraction},
		{"attribution", r.Attribution},
		{"pm-cycles", [2]float64{r.WebPMCycles, r.DBPMCycles}},
		{"tiers", r.Tiers},
	} {
		fmt.Fprintf(h, "%s=%+v\n", f.name, f.v)
	}
}

// TestAssemblyMatchesGoldenHash runs each shape once and compares its
// hash with the pinned constant.
func TestAssemblyMatchesGoldenHash(t *testing.T) {
	for _, s := range assemblyShapes() {
		r, err := Run(s.cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		h := sha256.New()
		hashAssembly(t, h, r)
		got := hex.EncodeToString(h.Sum(nil))
		t.Logf("%s: completed=%d tiers=%v sha256=%s", s.name, r.Completed, r.Tiers, got)
		if want := assemblyGoldenSHA256[s.name]; got != want {
			t.Errorf("%s: assembly hash %s, want %s", s.name, got, want)
		}
	}
}

// fuzzAssemblyConfig decodes FuzzAssembly's inputs into a tiny run:
// at most 20 clients and 6 simulated seconds on the shared tiny
// dataset, composing deployment, Pairs, Topology, the aux tiers,
// Resilience (± brownout), Faults (± hazard) and open-loop load.
func fuzzAssemblyConfig(seed uint64, physical bool, pairs, topo uint8, cache, queue bool, res, flt, target uint8, flash bool, clients, secs uint8) Config {
	env := Virtualized
	if physical {
		env = Physical
	}
	cfg := tinyAssemblyConfig(env)
	cfg.KeepFullCatalog = false
	cfg.Seed = seed
	cfg.Pairs = int(pairs % 6)
	cfg.Clients = 1 + int(clients%20)
	cfg.Duration = sim.Time(1+secs%6) * sim.Second
	switch topo % 4 {
	case 1:
		cfg.Topology = &tiers.Topology{}
	case 2:
		cfg.Topology = clusterTopology()
	case 3:
		cfg.Topology = clusterTopology()
		cfg.Topology.Autoscaler = &tiers.AutoscalerSpec{SLOMillis: 5, ScaleUpWindows: 1, CooldownSeconds: 2, BootSeconds: 1}
	}
	if cache {
		cfg.Cache = ptrSpec(cachetier.DefaultCacheSpec())
	}
	if queue {
		cfg.Queue = ptrSpec(cachetier.DefaultQueueSpec())
	}
	if res%4 > 0 {
		cfg.Resilience = faults.DefaultResilience()
		cfg.Resilience.FailoverDetectSeconds = 1
	}
	if res%4 > 1 {
		cfg.Resilience.Breaker = &faults.BreakerSpec{ErrorThreshold: 0.5, WindowRequests: 8, OpenMillis: 300}
	}
	if res%4 > 2 {
		cfg.Resilience.Brownout = &faults.BrownoutSpec{EnterUtil: 0.005, ExitUtil: 0.001}
	}
	tg := []int{int(target % 4)}
	switch flt % 5 {
	case 1:
		cfg.Faults = &faults.Schedule{}
	case 2, 4:
		cfg.Faults = &faults.Schedule{
			WebCrash:     &faults.Component{AtSeconds: 1, MTTRSeconds: 1, Targets: tg},
			DBCrash:      &faults.Component{AtSeconds: 2, Targets: tg},
			MachineCrash: &faults.Component{AtSeconds: 3, MTTRSeconds: 1, Targets: tg},
		}
		if flt%5 == 4 {
			cfg.Faults.Hazard = &faults.HazardSpec{UtilThreshold: 0.01, CrashProb: 0.6, MTTRSeconds: 1}
		}
	case 3:
		cfg.Faults = &faults.Schedule{
			CacheCrash: &faults.Component{AtSeconds: 1, MTTRSeconds: 1},
		}
	}
	if flash {
		cfg.Load = &load.Spec{
			Kind: load.Spike, Rate: 4, SpikeFactor: 5,
			SpikeAt: 2, SpikeRamp: 1, SpikeHold: 2,
			SessionMean: 4, AbandonAfterSeconds: 1,
		}
	}
	return cfg
}

// requireOneList fails t unless r reports through the one scalar list
// the runner aggregates by name: unique names, the five core metrics
// first, the four resource means of each tier in Tiers order last, and
// resource and request series on one time axis.
func requireOneList(t *testing.T, r *Result) {
	t.Helper()
	seen := make(map[string]bool, len(r.Scalars))
	for _, sc := range r.Scalars {
		if seen[sc.Name] {
			t.Fatalf("scalar %q reported twice", sc.Name)
		}
		seen[sc.Name] = true
	}
	var want []string
	for _, tier := range r.Tiers {
		want = append(want, MetricCPU(tier), MetricMem(tier), MetricDisk(tier), MetricNet(tier))
	}
	core := []string{MetricThroughput, MetricWriteFrac, MetricRespMean, MetricRespP95, MetricErrors}
	if len(r.Scalars) < len(core)+len(want) {
		t.Fatalf("%d scalars, want at least %d", len(r.Scalars), len(core)+len(want))
	}
	for i, name := range core {
		if r.Scalars[i].Name != name {
			t.Fatalf("scalar %d is %q, want core metric %q", i, r.Scalars[i].Name, name)
		}
	}
	tail := r.Scalars[len(r.Scalars)-len(want):]
	for i, name := range want {
		if tail[i].Name != name {
			t.Fatalf("scalar %d from the end is %q, want %q", len(want)-i, tail[i].Name, name)
		}
	}
	if rw, tw := r.Resources.Windows(), r.Telemetry.Windows(); rw != tw {
		t.Fatalf("%d resource windows, %d telemetry windows", rw, tw)
	}
}

// FuzzAssembly composes the assembly options and, whenever Validate
// accepts the result, checks that Run does not panic, that the outcome
// and per-pair accounting is conserved, that the Result reports
// through one scalar list, that it keeps nothing of its run reachable,
// and that a second Run is identical. The seed corpus is the seven
// pinned golden shapes and a cache crash beside a deployed queue.
func FuzzAssembly(f *testing.F) {
	for _, in := range []struct {
		physical         bool
		pairs, topo      uint8
		cache, queue     bool
		res, flt, target uint8
		flash            bool
		clients, secs    uint8
	}{
		{},                               // paper pair
		{physical: true},                 // physical
		{physical: true, res: 1, flt: 1}, // physical + empty faults + resilience
		{pairs: 3},                       // consolidation
		{topo: 1, cache: true, queue: true},
		{topo: 3, cache: true, queue: true, flash: true},
		{topo: 2, cache: true, res: 3, flt: 4, target: 0}, // chaos
		{topo: 2, cache: true, queue: true, flt: 3},       // cache crash beside the queue
	} {
		f.Add(uint64(11), in.physical, in.pairs, in.topo, in.cache, in.queue, in.res, in.flt, in.target, in.flash, uint8(19), uint8(5))
	}
	f.Fuzz(func(t *testing.T, seed uint64, physical bool, pairs, topo uint8, cache, queue bool, res, flt, target uint8, flash bool, clients, secs uint8) {
		cfg := fuzzAssemblyConfig(seed, physical, pairs, topo, cache, queue, res, flt, target, flash, clients, secs)
		if cfg.Validate() != nil {
			return
		}
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("validated config failed to run: %v", err)
		}
		if r := a.Requests; r != nil && r.InFlight > r.Issued {
			t.Fatalf("in-flight %d exceeds issued %d: %+v", r.InFlight, r.Issued, *r)
		}
		var completed uint64
		for _, ps := range a.PairStats {
			completed += ps.Completed
		}
		if completed != a.Completed {
			t.Fatalf("pair stats sum to %d completed, run reports %d", completed, a.Completed)
		}
		requireOneList(t, a)
		// Feature blocks register closures over the drivers and the
		// cluster; none of them may outlive the run through a.
		requireReleased(t, cfg, a)
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Completed != b.Completed || !reflect.DeepEqual(a.Requests, b.Requests) || !reflect.DeepEqual(a.Tiers, b.Tiers) {
			t.Fatalf("second run differs: completed %d/%d requests %+v/%+v tiers %v/%v",
				a.Completed, b.Completed, a.Requests, b.Requests, a.Tiers, b.Tiers)
		}
	})
}
