package tiers

import (
	"vwchar/internal/faults"
	"vwchar/internal/sim"
)

// Injector applies a pre-expanded fault timeline to a live cluster:
// crashing and restoring web replicas, DB instances, whole machines
// (via the topology's placement map) and the cache node, and toggling
// the slow-node mode. The timeline is expanded before the run starts,
// so injection consumes no randomness and stays byte-identical at any
// worker count.
type Injector struct {
	k   *sim.Kernel
	web *WebCluster
	// dbc's servers are addressed by id, so DB fault targets keep
	// meaning across failover promotions.
	dbc  *DBCluster
	topo Topology

	// cacheSrv, when deployed, receives CacheDown/Up events; nil leaves
	// them inert.
	cacheSrv *CacheServer

	events []faults.Event
	idx    int
}

// NewInjector wires the injector; call Start to arm the timeline.
// events must be sorted by time (faults.Schedule.Expand guarantees it).
// cache is the cache node, or nil when none is deployed.
func NewInjector(k *sim.Kernel, web *WebCluster, dbc *DBCluster, cache *CacheServer, topo Topology, events []faults.Event) *Injector {
	return &Injector{
		k:        k,
		web:      web,
		dbc:      dbc,
		topo:     topo,
		cacheSrv: cache,
		events:   events,
	}
}

// Start arms the first timeline event.
func (inj *Injector) Start() {
	if len(inj.events) > 0 {
		inj.k.AtCall(inj.events[0].At, injectorFire, inj)
	}
}

// injectorFire applies every event due now, then re-arms for the next.
func injectorFire(arg any) {
	inj := arg.(*Injector)
	now := inj.k.Now()
	for inj.idx < len(inj.events) && inj.events[inj.idx].At <= now {
		inj.apply(inj.events[inj.idx])
		inj.idx++
	}
	if inj.idx < len(inj.events) {
		inj.k.AtCall(inj.events[inj.idx].At, injectorFire, inj)
	}
}

func (inj *Injector) apply(e faults.Event) {
	switch e.Kind {
	case faults.WebDown:
		if e.Target < len(inj.web.Replicas) {
			inj.web.Replicas[e.Target].crash()
		}
	case faults.WebUp:
		if e.Target < len(inj.web.Replicas) {
			inj.web.Replicas[e.Target].restore()
		}
	case faults.DBDown:
		if e.Target < len(inj.dbc.servers) {
			inj.dbc.servers[e.Target].crash()
		}
	case faults.DBUp:
		if e.Target < len(inj.dbc.servers) {
			inj.dbc.servers[e.Target].restore()
		}
	case faults.MachineDown:
		inj.eachOnMachine(e.Target, func(w *WebAppServer) { w.crash() }, func(d *DBServer) { d.crash() })
	case faults.MachineUp:
		inj.eachOnMachine(e.Target, func(w *WebAppServer) { w.restore() }, func(d *DBServer) { d.restore() })
	case faults.SlowStart:
		inj.eachOnMachine(e.Target,
			func(w *WebAppServer) { w.slow = e.Value },
			func(d *DBServer) { d.slow = e.Value })
	case faults.SlowEnd:
		inj.eachOnMachine(e.Target,
			func(w *WebAppServer) { w.slow = 0 },
			func(d *DBServer) { d.slow = 0 })
	case faults.CacheDown:
		if inj.cacheSrv != nil {
			inj.cacheSrv.crash()
		}
	case faults.CacheUp:
		if inj.cacheSrv != nil {
			inj.cacheSrv.restore()
		}
	}
}

// eachOnMachine visits every server placed on machine m. VM order
// follows Topology.MachineFor: web replicas 0..MaxWebReplicas-1, then
// the DB primary, then read replicas.
func (inj *Injector) eachOnMachine(m int, webFn func(*WebAppServer), dbFn func(*DBServer)) {
	for i, w := range inj.web.Replicas {
		if inj.topo.MachineFor(i) == m {
			webFn(w)
		}
	}
	for j, d := range inj.dbc.servers {
		if inj.topo.MachineFor(inj.topo.MaxWebReplicas+j) == m {
			dbFn(d)
		}
	}
}
