package experiment

import (
	"fmt"

	"vwchar/internal/cachetier"
	"vwchar/internal/hw"
	"vwchar/internal/osmodel"
	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/sysstat"
	"vwchar/internal/tiers"
	"vwchar/internal/xen"
)

// instance is one assembled RUBiS instance, the same value on both
// deployments: the dataset it serves, the web cluster (one replica on
// the physical testbed), its DB tier, and the cache and write-behind
// queue nodes (nil unless deployed). Run reads the last two fields from
// the primary instance (pair 0) only: the collector targets, and the
// deployment's end-of-run accounting.
type instance struct {
	app      *rubis.App
	cluster  *tiers.WebCluster
	dbc      *tiers.DBCluster
	cacheSrv *tiers.CacheServer
	queueSrv *tiers.QueueServer
	targets  []sysstat.Target
	account  func(*Result)
}

// virtualized returns the builder of the Xen testbed (paper §4.1): the
// topology's hypervisors are created up front, and each call attaches
// one pair's dataset and assembles its guests on them.
func virtualized(k *sim.Kernel, cfg Config, topo tiers.Topology, attach func(stream string, pair int) (*rubis.App, error)) func(pair int) (*instance, error) {
	xp := xen.DefaultParams()
	if cfg.XenParams != nil {
		xp = *cfg.XenParams
	}
	hvs := make([]*xen.Hypervisor, topo.Machines)
	for m := range hvs {
		hvs[m] = xen.New(k, hw.NewServer(k, hw.ProLiantSpec(fmt.Sprintf("host%d", m))), xp)
	}
	hv := hvs[0]
	account := func(res *Result) {
		res.Attribution = hv.Attribution()
		res.GuestPhysCycles = hv.GuestPhysCycles()
		res.PerfFinal = hv.PerfCounters()
		res.Dom0BuffersMB = hv.Dom0().Mem.Get("backend-buffers") / 1e6
	}
	return func(pair int) (*instance, error) {
		app, err := attach(fmt.Sprintf("dataset-%d", pair), pair)
		if err != nil {
			return nil, err
		}
		inst := buildVMInstance(k, hvs, topo, pair, app, cfg.Cache, cfg.Queue)
		inst.account = account
		return inst, nil
	}
}

// physical returns the builder of the bare-metal testbed (paper §4.2):
// the web and DB tiers each on their own server, one pair only.
func physical(k *sim.Kernel, src *rng.Source, attach func(stream string, pair int) (*rubis.App, error)) func(pair int) (*instance, error) {
	return func(pair int) (*instance, error) {
		app, err := attach("dataset", pair)
		if err != nil {
			return nil, err
		}
		webSrv := hw.NewServer(k, hw.ProLiantSpec("web-pm"))
		dbSrv := hw.NewServer(k, hw.ProLiantSpec("db-pm"))
		webOS := osmodel.New("web-pm", webSrv.Mem, 140)
		dbOS := osmodel.New("db-pm", dbSrv.Mem, 135)
		webSrv.Mem.Set("kernel", 90e6)
		dbSrv.Mem.Set("kernel", 90e6)

		webBE := tiers.NewPMBackend(k, webSrv, dbSrv, tiers.DefaultPMParams("web"), src.Stream("pm-web-noise"), webOS)
		dbBE := tiers.NewPMBackend(k, dbSrv, webSrv, tiers.DefaultPMParams("db"), src.Stream("pm-db-noise"), dbOS)
		dbc := tiers.NewDBCluster(tiers.NewDBServer(k, dbBE, app, tiers.DefaultDBParams("pm")), nil, 0)
		paths := []tiers.PathPair{{To: tiers.PMPath(webBE), From: tiers.PMPath(dbBE)}}
		web := tiers.NewWebAppServer(k, webBE, dbc, paths, tiers.DefaultWebParams("pm"))
		return &instance{
			app:     app,
			cluster: tiers.NewWebCluster(k, []*tiers.WebAppServer{web}, 1, nil),
			dbc:     dbc,
			targets: []sysstat.Target{
				{Name: TierWeb, Snap: ticking(k, webOS, func() sysstat.Snapshot { return host(webSrv, webOS) })},
				{Name: TierDB, Snap: ticking(k, dbOS, func() sysstat.Snapshot { return host(dbSrv, dbOS) })},
			},
			account: func(res *Result) {
				res.WebPMCycles = webSrv.CPU.TotalCycles()
				res.DBPMCycles = dbSrv.CPU.TotalCycles()
			},
		}, nil
	}
}

// buildVMInstance assembles one RUBiS instance for the (normalized)
// topology on the given hypervisors. pair is the consolidation index:
// multi-pair runs place several degenerate instances side by side, so
// guest names stay unique and, for the degenerate single-pair case,
// identical to the pre-topology assembly ("webapp-vm-0", "mysql-vm-0").
//
// Construction order is part of the determinism contract: web guests
// (in replica order), then DB guests (primary, then read replicas),
// then DB servers before web servers, then the cache and queue guests —
// exactly the pre-topology sequence when the topology is degenerate and
// no aux tier is set, so the golden sweep hash pins this path.
func buildVMInstance(k *sim.Kernel, hvs []*xen.Hypervisor, topo tiers.Topology, pair int, app *rubis.App, cache *cachetier.CacheSpec, queue *cachetier.QueueSpec) *instance {
	inst := &instance{app: app}
	hvFor := func(vm int) *xen.Hypervisor { return hvs[topo.MachineFor(vm)] }

	var webDoms, dbDoms []*xen.Domain // dbDoms: primary first, then read replicas
	for i := 0; i < topo.MaxWebReplicas; i++ {
		d := hvFor(i).CreateGuest(fmt.Sprintf("webapp-vm-%d", pair*topo.MaxWebReplicas+i), 2, 2<<30, 256)
		webDoms = append(webDoms, d)
	}
	primaryVM := topo.MaxWebReplicas
	primaryDom := hvFor(primaryVM).CreateGuest(fmt.Sprintf("mysql-vm-%d", pair), 2, 2<<30, 256)
	dbDoms = append(dbDoms, primaryDom)
	for j := 0; j < topo.DBReadReplicas; j++ {
		d := hvFor(primaryVM+1+j).CreateGuest(fmt.Sprintf("mysql-ro-vm-%d", j), 2, 2<<30, 256)
		dbDoms = append(dbDoms, d)
	}
	for _, d := range webDoms {
		d.Mem.Set("kernel", 50e6)
	}
	for _, d := range dbDoms {
		d.Mem.Set("kernel", 22e6)
	}

	// DB tier first (its checkpoint ticker precedes the web spill
	// tickers in the event order, as before the refactor). Read
	// replicas carry no engine reference: only the primary checkpoints
	// the shared storage engine.
	primaryBE := &tiers.VMBackend{HV: hvFor(primaryVM), Dom: primaryDom, Peer: webDoms[0]}
	primary := tiers.NewDBServer(k, primaryBE, app, tiers.DefaultDBParams("vm"))
	var replicas []*tiers.DBServer
	for j := 0; j < topo.DBReadReplicas; j++ {
		be := &tiers.VMBackend{HV: hvFor(primaryVM + 1 + j), Dom: dbDoms[1+j]}
		params := tiers.DefaultDBParams("vm")
		params.CheckpointEvery = 0
		replicas = append(replicas, tiers.NewDBServer(k, be, nil, params))
	}
	inst.dbc = tiers.NewDBCluster(primary, replicas, topo.ReplicaLag())
	// dbPaths lists the paths from guest a on hvA to every DB instance,
	// in routing order.
	dbPaths := func(hvA *xen.Hypervisor, a *xen.Domain) []tiers.PathPair {
		paths := make([]tiers.PathPair, len(dbDoms))
		for j, d := range dbDoms {
			paths[j] = pathPair(k, hvA, a, hvFor(primaryVM+j), d)
		}
		return paths
	}

	webs := make([]*tiers.WebAppServer, 0, topo.MaxWebReplicas)
	for i, dom := range webDoms {
		be := &tiers.VMBackend{HV: hvFor(i), Dom: dom, Peer: primaryDom}
		webs = append(webs, tiers.NewWebAppServer(k, be, inst.dbc, dbPaths(hvFor(i), dom), tiers.DefaultWebParams("vm")))
	}
	inst.cluster = tiers.NewWebCluster(k, webs, topo.WebReplicas, tiers.NewLoadBalancer(topo.LB))

	// Aux tiers append strictly after the classic guests, so with nil
	// specs the assembly stays on the golden sequence. Without an
	// explicit placement the aux VMs round-robin onto the machines after
	// the classic ones; an explicit placement vector does not cover
	// them, so they co-locate with the DB primary (the tier they shield).
	auxGuest := func(i int, name string) (*xen.Hypervisor, *xen.Domain) {
		m := (topo.VMCount() + i) % topo.Machines
		if len(topo.Placement) > 0 {
			m = topo.MachineFor(primaryVM)
		}
		dom := hvs[m].CreateGuest(fmt.Sprintf("%s-vm-%d", name, pair), 2, 2<<30, 256)
		dom.Mem.Set("kernel", 30e6)
		return hvs[m], dom
	}
	var aux []sysstat.Target
	if cache != nil {
		hv, dom := auxGuest(0, TierCache)
		be := &tiers.VMBackend{HV: hv, Dom: dom, Peer: webDoms[0]}
		inst.cacheSrv = tiers.NewCacheServer(k, be, *cache, tiers.DefaultCacheParams())
		for i, w := range webs {
			w.SetCacheTier(inst.cacheSrv, pathPair(k, hvFor(i), webDoms[i], hv, dom))
		}
		aux = append(aux, vmTarget(k, TierCache, dom))
	}
	if queue != nil {
		hv, dom := auxGuest(1, TierQueue)
		be := &tiers.VMBackend{HV: hv, Dom: dom, Peer: dbDoms[0]}
		inst.queueSrv = tiers.NewQueueServer(k, be, inst.dbc, dbPaths(hv, dom), *queue, tiers.DefaultQueueParams())
		for i, w := range webs {
			w.SetQueueTier(inst.queueSrv, pathPair(k, hvFor(i), webDoms[i], hv, dom))
		}
		aux = append(aux, vmTarget(k, TierQueue, dom))
	}

	if topo.IsDegenerate() {
		// The paper's exact target prefix — the golden sweep hash pins it.
		inst.targets = []sysstat.Target{
			vmTarget(k, TierWeb, webDoms[0]),
			vmTarget(k, TierDB, dbDoms[0]),
			dom0Target(k, TierDom0, hvs[0]),
		}
	} else {
		inst.targets = clusterTargets(k, hvs, webDoms, dbDoms)
	}
	// Aux tiers last, so the classic target prefix is untouched.
	inst.targets = append(inst.targets, aux...)
	return inst
}

// pathPair is the request/response path pair between guest a on hvA
// and guest b on hvB: the split-driver path through dom0 when they
// share a machine, the path across both hosts' NICs otherwise.
func pathPair(k *sim.Kernel, hvA *xen.Hypervisor, a *xen.Domain, hvB *xen.Hypervisor, b *xen.Domain) tiers.PathPair {
	if hvA == hvB {
		return tiers.PathPair{To: tiers.VMPath(hvA, a, b), From: tiers.VMPath(hvA, b, a)}
	}
	return tiers.PathPair{To: tiers.CrossVMPath(k, hvA, a, hvB, b), From: tiers.CrossVMPath(k, hvB, b, hvA, a)}
}

// clusterTargets builds the collector target list for a non-degenerate
// topology: per-VM targets first (their snapshots tick the guest OS
// clocks), then per-machine dom0s when there are several machines, then
// non-ticking aggregates under the classic tier names so every existing
// consumer of "webapp"/"mysql"/"dom0" keeps working at cluster scale.
func clusterTargets(k *sim.Kernel, hvs []*xen.Hypervisor, webDoms, dbDoms []*xen.Domain) []sysstat.Target {
	var ts []sysstat.Target
	for i, d := range webDoms {
		ts = append(ts, vmTarget(k, fmt.Sprintf("%s-%d", TierWeb, i), d))
	}
	ts = append(ts, vmTarget(k, TierDB+"-primary", dbDoms[0]))
	for j, d := range dbDoms[1:] {
		ts = append(ts, vmTarget(k, fmt.Sprintf("%s-ro-%d", TierDB, j), d))
	}
	if len(hvs) > 1 {
		for m, hv := range hvs {
			ts = append(ts, dom0Target(k, fmt.Sprintf("%s-%d", TierDom0, m), hv))
		}
		ts = append(ts, sysstat.Target{Name: TierDom0, Snap: sum(k, hvs, dom0)})
	} else {
		ts = append(ts, dom0Target(k, TierDom0, hvs[0]))
	}
	return append(ts,
		sysstat.Target{Name: TierWeb, Snap: sum(k, webDoms, guest)},
		sysstat.Target{Name: TierDB, Snap: sum(k, dbDoms, guest)},
	)
}

// vmTarget monitors one guest domain.
func vmTarget(k *sim.Kernel, name string, d *xen.Domain) sysstat.Target {
	return sysstat.Target{Name: name, Snap: ticking(k, d.OS, func() sysstat.Snapshot { return guest(d) })}
}

// dom0Target monitors one hypervisor's dom0.
func dom0Target(k *sim.Kernel, name string, hv *xen.Hypervisor) sysstat.Target {
	return sysstat.Target{Name: name, Snap: ticking(k, hv.Dom0().OS, func() sysstat.Snapshot { return dom0(hv) })}
}

// ticking turns a counter reader into a collector snapshot: each call
// first advances the instance's OS clock (load averages) to now, then
// reads and stamps the counters.
func ticking(k *sim.Kernel, os *osmodel.OS, read func() sysstat.Snapshot) func() sysstat.Snapshot {
	var lastTick sim.Time
	return func() sysstat.Snapshot {
		now := k.Now()
		os.Tick(now - lastTick)
		lastTick = now
		s := read()
		s.At = now
		return s
	}
}

// sum builds an aggregate snapshot over parts without ticking their OS
// clocks: the per-instance targets, registered earlier in the same
// collection round, own the ticks.
func sum[T any](k *sim.Kernel, parts []T, read func(T) sysstat.Snapshot) func() sysstat.Snapshot {
	return func() sysstat.Snapshot {
		s := sysstat.Snapshot{At: k.Now()}
		for _, p := range parts {
			s = s.Add(read(p))
		}
		return s
	}
}

// guest reads a guest domain's counters as sysstat inside the VM sees
// them.
func guest(d *xen.Domain) sysstat.Snapshot {
	s := kernelCounters(d.OS)
	s.CPUCycles, s.CPUBusy, s.StealTime = d.VirtCycles(), d.CPU.BusyTime(), d.StealTime()
	s.Cores, s.FreqHz = d.VCPUs, 2.8e9
	s.MemTotal, s.MemUsed, s.MemBuffers = d.Mem.Capacity(), d.Mem.Used(), d.Mem.Used()*0.04
	s.MemCached = d.Mem.Get("dbcache") + d.Mem.Get("pagecache")
	s.DiskReadBytes, s.DiskWriteBytes = d.DiskReadBytes, d.DiskWrittenBytes
	s.DiskReadOps, s.DiskWriteOps = d.DiskOps/2, d.DiskOps-d.DiskOps/2
	s.NetRxBytes, s.NetTxBytes = d.NetRxBytes, d.NetTxBytes
	s.NetRxPkts, s.NetTxPkts = uint64(d.NetRxBytes/1500)+1, uint64(d.NetTxBytes/1500)+1
	s.TCPSocks, s.UDPSocks = 40+d.OS.RunQueue*2, 4
	return s
}

// dom0 reads a hypervisor's dom0: its own CPU, memory and kernel, plus
// the physical disk and NIC it drives for the guests.
func dom0(hv *xen.Hypervisor) sysstat.Snapshot {
	d := hv.Dom0()
	s := kernelCounters(d.OS)
	s.CPUCycles, s.CPUBusy = d.CPU.TotalCycles(), d.CPU.BusyTime()
	s.Cores, s.FreqHz = d.VCPUs, hv.Host().Spec.FreqHz
	s.MemTotal, s.MemUsed = d.Mem.Capacity(), d.Mem.Used()
	s.MemBuffers, s.MemCached = d.Mem.Get("backend-buffers"), d.Mem.Get("pagecache")
	s.TCPSocks, s.UDPSocks = 35, 6
	return withDevices(s, hv.Host())
}

// host reads a bare-metal server and the OS running on it.
func host(srv *hw.Server, os *osmodel.OS) sysstat.Snapshot {
	s := kernelCounters(os)
	s.CPUCycles, s.CPUBusy = srv.CPU.TotalCycles(), srv.CPU.BusyTime()
	s.Cores, s.FreqHz = srv.Spec.Cores, srv.Spec.FreqHz
	s.MemTotal, s.MemUsed, s.MemBuffers = srv.Mem.Capacity(), srv.Mem.Used(), srv.Mem.Used()*0.05
	s.MemCached = srv.Mem.Get("dbcache") + srv.Mem.Get("pagecache")
	s.TCPSocks, s.UDPSocks = 60+os.RunQueue*2, 5
	return withDevices(s, srv)
}

// kernelCounters reads the part of a snapshot every instance reports
// the same way: kernel counters, process gauges and load averages.
func kernelCounters(os *osmodel.OS) sysstat.Snapshot {
	l1, l5, l15 := os.LoadAvg()
	return sysstat.Snapshot{
		CtxSwitches: os.CtxSwitches, Interrupts: os.Interrupts, SoftIRQs: os.SoftIRQs,
		Forks: os.Forks, Faults: os.Faults, MajFaults: os.MajFaults,
		PgInBytes: os.PgInBytes, PgOutBytes: os.PgOutBytes,
		Procs: os.Procs, RunQueue: os.RunQueue, Blocked: os.Blocked, OpenFds: os.OpenFds,
		Load1: l1, Load5: l5, Load15: l15,
	}
}

// withDevices fills s's disk and network counters from a server's
// physical disk and NIC.
func withDevices(s sysstat.Snapshot, srv *hw.Server) sysstat.Snapshot {
	s.DiskReadBytes, s.DiskWriteBytes = srv.Disk.ReadBytes(), srv.Disk.WrittenBytes()
	s.DiskReadOps, s.DiskWriteOps = srv.Disk.Ops()
	s.DiskBusy = srv.Disk.BusyTime()
	s.NetRxBytes, s.NetTxBytes = srv.NIC.RxBytes(), srv.NIC.TxBytes()
	s.NetRxPkts, s.NetTxPkts = srv.NIC.Packets()
	return s
}
