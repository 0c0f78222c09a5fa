package tiers

import (
	"vwchar/internal/faults"
	"vwchar/internal/sim"
)

// Injector applies a pre-expanded fault timeline to a live cluster:
// crashing and restoring web replicas, DB instances, and whole
// machines (via the topology's placement map), and toggling degraded
// modes (slow node, lag spikes, cross-machine path delays). The
// timeline is expanded before the run starts, so injection consumes no
// randomness and stays byte-identical at any worker count.
type Injector struct {
	k   *sim.Kernel
	web *WebCluster
	// dbc's servers are addressed by id, so DB fault targets keep
	// meaning across failover promotions.
	dbc     *DBCluster
	topo    Topology
	baseLag sim.Time

	// cacheSrv/queueSrv, when wired, receive CacheDown/Up and
	// QueueDown/Up events (single-instance tiers).
	cacheSrv *CacheServer
	queueSrv *QueueServer

	events []faults.Event
	idx    int
}

// SetAuxTiers wires the cache and queue nodes into fault injection;
// nil leaves the corresponding events inert.
func (inj *Injector) SetAuxTiers(c *CacheServer, q *QueueServer) {
	inj.cacheSrv = c
	inj.queueSrv = q
}

// NewInjector wires the injector; call Start to arm the timeline.
// events must be sorted by time (faults.Schedule.Expand guarantees it).
func NewInjector(k *sim.Kernel, web *WebCluster, dbc *DBCluster, topo Topology, events []faults.Event) *Injector {
	return &Injector{
		k:       k,
		web:     web,
		dbc:     dbc,
		topo:    topo,
		baseLag: dbc.Lag,
		events:  events,
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
	case faults.LagStart:
		inj.dbc.Lag = inj.baseLag + sim.Seconds(e.Value)
	case faults.LagEnd:
		inj.dbc.Lag = inj.baseLag
	case faults.DelayStart:
		inj.setPathDelay(sim.Seconds(e.Value))
	case faults.DelayEnd:
		inj.setPathDelay(0)
	case faults.CacheDown:
		if inj.cacheSrv != nil {
			inj.cacheSrv.crash()
		}
	case faults.CacheUp:
		if inj.cacheSrv != nil {
			inj.cacheSrv.restore()
		}
	case faults.QueueDown:
		if inj.queueSrv != nil {
			inj.queueSrv.crash()
		}
	case faults.QueueUp:
		if inj.queueSrv != nil {
			inj.queueSrv.restore()
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

// setPathDelay adds extra one-way latency to every cross-machine path
// in the cluster (packet-loss-like degradation).
func (inj *Injector) setPathDelay(extra sim.Time) {
	for _, w := range inj.web.Replicas {
		for _, pp := range w.dbPaths {
			if cp, ok := pp.To.(*crossPath); ok {
				cp.extra = extra
			}
			if cp, ok := pp.From.(*crossPath); ok {
				cp.extra = extra
			}
		}
	}
}
