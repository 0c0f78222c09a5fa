package tiers

import (
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/xen"
)

// Path carries inter-tier bytes between two specific endpoints. The
// topology precomputes one Path per (web replica, DB instance, direction)
// at assembly time, so the per-request dispatch path routes through
// plain interface calls with no allocation and no placement lookups.
type Path interface {
	// Transfer moves bytes along the path; done(arg) (optional) fires
	// when they have arrived at the destination endpoint.
	Transfer(bytes float64, done sim.Callback, arg any)
}

// PathPair is the two directions of a web-replica<->DB-instance link:
// To carries the query request toward the DB, From carries the reply
// back to the web replica.
type PathPair struct {
	To, From Path
}

// vmPath links two co-resident guests across the host's software
// bridge — exactly the transfer the pre-topology backend performed,
// which is what keeps the degenerate topology byte-identical.
type vmPath struct {
	hv       *xen.Hypervisor
	src, dst *xen.Domain
}

func (p vmPath) Transfer(bytes float64, done sim.Callback, arg any) {
	p.hv.GuestNetInterVM(p.src, p.dst, bytes, done, arg)
}

// VMPath builds the co-resident guest-to-guest path.
func VMPath(hv *xen.Hypervisor, src, dst *xen.Domain) Path {
	return vmPath{hv: hv, src: src, dst: dst}
}

// CrossWireLatency is the one-way latency between physical machines for
// guest traffic that leaves the host (same figure as the PM deployment's
// inter-server wire).
const CrossWireLatency = 120 * sim.Microsecond

// crossPath links guests on different physical machines: the bytes
// leave the source host through its NIC and dom0, cross the wire, and
// enter the destination host the same way. In-flight transfers are
// carried by pooled crossFwd slots, keeping dispatch allocation-free.
type crossPath struct {
	k        *sim.Kernel
	srcHV    *xen.Hypervisor
	dstHV    *xen.Hypervisor
	src, dst *xen.Domain
	fwdFree  sim.FreeList[crossFwd]
}

type crossFwd struct {
	p     *crossPath
	bytes float64
	done  sim.Callback
	darg  any
}

func (p *crossPath) Transfer(bytes float64, done sim.Callback, arg any) {
	f := p.fwdFree.Get()
	f.p = p
	f.bytes = bytes
	f.done = done
	f.darg = arg
	p.srcHV.GuestNetExternal(p.src, bytes, false, crossSent, f)
}

// crossSent fires when the bytes cleared the source host's NIC: start
// the wire leg.
func crossSent(arg any) {
	f := arg.(*crossFwd)
	f.p.k.AfterCall(CrossWireLatency, crossArrived, f)
}

// crossArrived fires at the destination machine: deliver through its
// dom0 and NIC, handing the caller's completion to the inbound leg,
// then recycle the forward slot.
func crossArrived(arg any) {
	f := arg.(*crossFwd)
	p := f.p
	done, darg, bytes := f.done, f.darg, f.bytes
	p.fwdFree.Put(f)
	p.dstHV.GuestNetExternal(p.dst, bytes, true, done, darg)
}

// CrossVMPath builds the cross-machine guest-to-guest path.
func CrossVMPath(k *sim.Kernel, srcHV *xen.Hypervisor, src *xen.Domain, dstHV *xen.Hypervisor, dst *xen.Domain) Path {
	return &crossPath{k: k, srcHV: srcHV, dstHV: dstHV, src: src, dst: dst}
}

// pmPath wraps the physical deployment's inter-server wire transfer.
type pmPath struct{ be *PMBackend }

func (p pmPath) Transfer(bytes float64, done sim.Callback, arg any) {
	p.be.NetToPeer(bytes, done, arg)
}

// PMPath builds the physical inter-server path originating at be.
func PMPath(be *PMBackend) Path { return pmPath{be: be} }

// Route is per-session routing state: it remembers the session's last
// write so reads within the replication lag stay on the primary
// (read-your-writes). Both drivers embed one per client/session and
// thread a pointer through the dispatch path; nil is accepted and
// simply disables stickiness.
type Route struct {
	wrote       bool
	lastWriteAt sim.Time
	// Outcome is stamped by the serving path when a request ends
	// abnormally (timeout, shed, error); the zero value is
	// OutcomeServed, and the healthy path never writes it.
	Outcome Outcome
	// gen counts reuses of this route: the guard bumps it when a try
	// times out and the session moves on, and Reset bumps it for slot
	// reuse. A server-side request admitted under an older generation
	// is a straggler and must stop touching the route (see
	// webRequest.rtGen).
	gen uint32
}

// Reset clears the routing state for session reuse.
func (r *Route) Reset() { r.wrote = false; r.lastWriteAt = 0; r.Outcome = OutcomeServed; r.gen++ }

// generation reports the route's reuse generation; nil-safe so request
// paths without routing state (rt == nil) snapshot a stable zero.
func (r *Route) generation() uint32 {
	if r == nil {
		return 0
	}
	return r.gen
}

// DBCluster is the database tier: a primary that takes every write and
// checkpoint, plus optional read replicas that share the read fan-out.
type DBCluster struct {
	Primary  *DBServer
	Replicas []*DBServer
	// Lag is the replication lag window for read-your-writes routing.
	Lag sim.Time
	// servers lists every instance by its fixed id (its topology
	// position: primary first, then replicas), which promotion never
	// changes.
	servers []*DBServer

	rr int
}

// NewDBCluster wires the tier and stamps each server with its id, its
// position in [primary, replicas...]. replicas may be empty (the
// degenerate single-DB deployment).
func NewDBCluster(primary *DBServer, replicas []*DBServer, lag sim.Time) *DBCluster {
	c := &DBCluster{Primary: primary, Replicas: replicas, Lag: lag}
	c.servers = append([]*DBServer{primary}, replicas...)
	for id, s := range c.servers {
		s.id = id
	}
	return c
}

// server returns the instance at routing index i (0 = primary,
// 1..R = read replicas).
func (c *DBCluster) server(i int) *DBServer {
	if i == 0 {
		return c.Primary
	}
	return c.Replicas[i-1]
}

// route picks the instance index for one query. Writes always hit the
// primary and stamp the session's route; reads go to the primary while
// the session is within the replication lag of its last write, and fan
// out round-robin across the live replicas otherwise (a crashed
// replica is skipped without disturbing the rotation counter's
// healthy-path sequence; if every replica is down the read falls back
// to the primary). With no replicas this is a constant — the
// degenerate path touches nothing.
func (c *DBCluster) route(write bool, now sim.Time, rt *Route) int {
	if len(c.Replicas) == 0 {
		return 0
	}
	if write {
		if rt != nil {
			rt.wrote = true
			rt.lastWriteAt = now
		}
		return 0
	}
	if rt != nil && rt.wrote && now-rt.lastWriteAt < c.Lag {
		return 0
	}
	n := len(c.Replicas)
	for j := 0; j < n; j++ {
		i := c.rr
		c.rr++
		if c.rr == n {
			c.rr = 0
		}
		if !c.Replicas[i].down {
			return 1 + i
		}
	}
	return 0
}

// Promote swaps read replica j in as the new primary (DB failover).
// The old primary takes the replica's slot, so routing index 0 now
// reaches the promoted server and 1+j the old primary. Callers' paths
// are indexed by server id, so they follow the swap unchanged.
func (c *DBCluster) Promote(j int) {
	c.Primary, c.Replicas[j] = c.Replicas[j], c.Primary
}

// Frontend is the surface a driver pushes requests into: the WebCluster
// implements it; tests substitute a stub to pin driver scheduling in
// isolation from the tier stack.
type Frontend interface {
	// Dispatch routes one parsed interaction to a web replica; done(arg)
	// fires when the response has been transmitted to the client. rt may
	// be nil (no session routing state).
	Dispatch(res *rubis.Result, rt *Route, done sim.Callback, arg any)
}

// LoadBalancer picks which active web replica takes the next request.
// Implementations must be deterministic and allocation-free.
type LoadBalancer interface {
	// Pick returns the index of an Active replica in c, or -1 when no
	// replica is active (every replica ejected by health checks); the
	// cluster then fast-fails the request.
	Pick(c *WebCluster) int
}

// NewLoadBalancer builds the named policy (round-robin for the zero
// value).
func NewLoadBalancer(p LBPolicy) LoadBalancer {
	switch p {
	case LBLeastInFlight:
		return &leastInFlight{}
	case LBJoinShortestQueue:
		return &joinShortestQueue{}
	default:
		return &roundRobin{}
	}
}

type roundRobin struct{ next int }

func (p *roundRobin) Pick(c *WebCluster) int {
	n := len(c.Replicas)
	for j := 0; j < n; j++ {
		i := p.next + j
		if i >= n {
			i -= n
		}
		if c.state[i] == ReplicaActive {
			p.next = i + 1
			if p.next == n {
				p.next = 0
			}
			return i
		}
	}
	return -1
}

type leastInFlight struct{}

func (leastInFlight) Pick(c *WebCluster) int {
	best, bestLoad := -1, 0
	for i, r := range c.Replicas {
		if c.state[i] != ReplicaActive {
			continue
		}
		if best < 0 || r.inflight < bestLoad {
			best, bestLoad = i, r.inflight
		}
	}
	return best
}

type joinShortestQueue struct{}

func (joinShortestQueue) Pick(c *WebCluster) int {
	best, bestLoad := -1, 0
	for i, r := range c.Replicas {
		if c.state[i] != ReplicaActive {
			continue
		}
		q := r.active + len(r.queue)
		if best < 0 || q < bestLoad {
			best, bestLoad = i, q
		}
	}
	return best
}

// ReplicaState is a web replica's lifecycle position.
type ReplicaState uint8

const (
	// ReplicaParked: provisioned (VM booted, baseline footprint) but not
	// taking traffic; the autoscaler's headroom.
	ReplicaParked ReplicaState = iota
	// ReplicaBooting: a scale-up was decided; the replica takes traffic
	// once the provisioning delay elapses.
	ReplicaBooting
	// ReplicaActive: in the load balancer's rotation.
	ReplicaActive
	// ReplicaDown: ejected by health checks after its server crashed;
	// readmitted when a later check sees it healthy.
	ReplicaDown
)

// ScaleEvent records one autoscaler/cluster transition.
type ScaleEvent struct {
	// At is when the event happened.
	At sim.Time
	// Replica is the web replica index affected.
	Replica int
	// Kind is "boot" (scale-up decided), "up" (replica active), or
	// "down" (replica drained).
	Kind string
	// Active is the active replica count after the event.
	Active int
	// Reason is the policy's explanation.
	Reason string
}

// WebCluster is the front-end tier at cluster scale: MaxWebReplicas
// provisioned web replicas, of which the active subset takes traffic
// through the load balancer. Dispatch is allocation-free on the pooled
// request path; the degenerate single-replica cluster reproduces the
// pre-topology request event sequence exactly.
type WebCluster struct {
	k *sim.Kernel
	// Replicas are the provisioned web servers, active or not.
	Replicas []*WebAppServer
	state    []ReplicaState
	lb       LoadBalancer

	activeCount int
	peakActive  int
	minActive   int

	// ovl is the brownout controller's LB-side consult: while degraded,
	// dispatches onto over-bound queues fast-fail instead of piling in.
	// nil on undegraded clusters (the default path is untouched).
	ovl *Overload
	// backfillBoot is the provisioning delay used when an ejection
	// would starve minActive and a parked replica is booted to cover.
	backfillBoot sim.Time

	// acts backs closure-free delayed activations (one slot per replica).
	acts []activation

	dispFree sim.FreeList[dispatch]

	// Events is the scale-event log, in time order.
	Events []ScaleEvent
}

type activation struct {
	c *WebCluster
	i int
}

// dispatch carries one request from the balancer decision through the
// client->replica network transfer, recycled through the cluster's
// free list.
type dispatch struct {
	r    *WebAppServer
	res  *rubis.Result
	rt   *Route
	done sim.Callback
	darg any
	free *sim.FreeList[dispatch]
}

// NewWebCluster wires the tier: the first initialActive replicas start
// active, the rest parked. The active count never drops below
// initialActive's floor of 1 (the autoscaler cannot drain the last
// replica).
func NewWebCluster(k *sim.Kernel, replicas []*WebAppServer, initialActive int, lb LoadBalancer) *WebCluster {
	if initialActive < 1 {
		initialActive = 1
	}
	if initialActive > len(replicas) {
		initialActive = len(replicas)
	}
	if lb == nil {
		lb = NewLoadBalancer(LBRoundRobin)
	}
	c := &WebCluster{
		k:           k,
		Replicas:    replicas,
		state:       make([]ReplicaState, len(replicas)),
		lb:          lb,
		activeCount: initialActive,
		peakActive:  initialActive,
		minActive:   1,
		acts:        make([]activation, len(replicas)),
	}
	for i := range replicas {
		if i < initialActive {
			c.state[i] = ReplicaActive
		}
		c.acts[i] = activation{c: c, i: i}
	}
	return c
}

// ActiveReplicas reports how many replicas currently take traffic.
func (c *WebCluster) ActiveReplicas() int { return c.activeCount }

// PeakActive reports the maximum concurrently active replica count.
func (c *WebCluster) PeakActive() int { return c.peakActive }

// Booting reports how many replicas are mid-provisioning (the
// autoscaler's double-provision guard).
func (c *WebCluster) Booting() int {
	n := 0
	for _, st := range c.state {
		if st == ReplicaBooting {
			n++
		}
	}
	return n
}

// SetOverload wires the brownout controller consulted on dispatch;
// nil leaves the path untouched.
func (c *WebCluster) SetOverload(o *Overload) { c.ovl = o }

// SetBackfillBoot sets the provisioning delay for emergency backfill
// activations (ejection below minActive). Zero activates instantly.
func (c *WebCluster) SetBackfillBoot(boot sim.Time) { c.backfillBoot = boot }

// Dispatch implements Frontend: pick a replica, move the request bytes
// from the client to it, and hand the request over on arrival. When no
// replica is active (all ejected), the request fast-fails with an
// error response after a connection-refused turnaround.
func (c *WebCluster) Dispatch(res *rubis.Result, rt *Route, done sim.Callback, arg any) {
	i := c.lb.Pick(c)
	if i < 0 {
		dp := c.dispFree.Get()
		dp.r = nil
		dp.res = res
		dp.rt = rt
		dp.done = done
		dp.darg = arg
		dp.free = &c.dispFree
		c.k.AfterCall(errorRespLatency, dispatchFailed, dp)
		return
	}
	if c.ovl != nil && c.ovl.boundExceeded(i) {
		// Degraded and the chosen queue is over bound: fail fast as
		// degraded rather than feeding metastable queue growth.
		dp := c.dispFree.Get()
		dp.r = nil
		dp.res = res
		dp.rt = rt
		dp.done = done
		dp.darg = arg
		dp.free = &c.dispFree
		c.k.AfterCall(shedRespLatency, dispatchDegraded, dp)
		return
	}
	r := c.Replicas[i]
	r.Dispatched++
	r.inflight++
	dp := c.dispFree.Get()
	dp.r = r
	dp.res = res
	dp.rt = rt
	dp.done = done
	dp.darg = arg
	dp.free = &c.dispFree
	r.be.NetExternal(res.RequestBytes, true, dispatchArrived, dp)
}

// dispatchArrived fires when the request bytes reached the chosen
// replica: recycle the dispatch slot and start request processing.
func dispatchArrived(arg any) {
	dp := arg.(*dispatch)
	r, res, rt, done, darg := dp.r, dp.res, dp.rt, dp.done, dp.darg
	dp.free.Put(dp)
	r.HandleRequest(res, rt, done, darg)
}

// dispatchFailed delivers the no-replica-available error response.
func dispatchFailed(arg any) {
	dp := arg.(*dispatch)
	rt, done, darg := dp.rt, dp.done, dp.darg
	dp.res = nil
	dp.rt = nil
	dp.free.Put(dp)
	if rt != nil {
		rt.Outcome = OutcomeFailed
	}
	if done != nil {
		done(darg)
	}
}

// dispatchDegraded delivers the brownout controller's over-bound
// fast-fail response.
func dispatchDegraded(arg any) {
	dp := arg.(*dispatch)
	rt, done, darg := dp.rt, dp.done, dp.darg
	dp.res = nil
	dp.rt = nil
	dp.free.Put(dp)
	if rt != nil {
		rt.Outcome = OutcomeDegraded
	}
	if done != nil {
		done(darg)
	}
}

// note appends one scale event.
func (c *WebCluster) note(at sim.Time, replica int, kind, reason string) {
	c.Events = append(c.Events, ScaleEvent{
		At: at, Replica: replica, Kind: kind, Active: c.activeCount, Reason: reason,
	})
}

// ScaleUp activates the first parked replica after the provisioning
// delay; it reports false when no headroom remains.
func (c *WebCluster) ScaleUp(boot sim.Time, reason string) bool {
	for i, st := range c.state {
		if st != ReplicaParked {
			continue
		}
		c.state[i] = ReplicaBooting
		c.note(c.k.Now(), i, "boot", reason)
		if boot <= 0 {
			c.activate(i, reason)
		} else {
			c.k.AfterCall(boot, clusterActivate, &c.acts[i])
		}
		return true
	}
	return false
}

// clusterActivate fires when a booting replica's provisioning delay
// elapsed.
func clusterActivate(arg any) {
	a := arg.(*activation)
	a.c.activate(a.i, "boot complete")
}

func (c *WebCluster) activate(i int, reason string) {
	if c.state[i] == ReplicaActive {
		return
	}
	c.state[i] = ReplicaActive
	c.activeCount++
	if c.activeCount > c.peakActive {
		c.peakActive = c.activeCount
	}
	c.note(c.k.Now(), i, "up", reason)
}

// ScaleDown drains the highest-index active replica: the balancer stops
// picking it immediately, outstanding requests finish naturally, and it
// returns to the parked pool. The last active replica never drains.
func (c *WebCluster) ScaleDown(reason string) bool {
	if c.activeCount <= c.minActive {
		return false
	}
	for i := len(c.state) - 1; i >= 0; i-- {
		if c.state[i] != ReplicaActive {
			continue
		}
		c.state[i] = ReplicaParked
		c.activeCount--
		c.note(c.k.Now(), i, "down", reason)
		return true
	}
	return false
}

// Eject removes a crashed replica from the balancer rotation (health
// check failure). When the ejection would starve minActive and parked
// headroom exists, a parked replica is booted to cover (emergency
// backfill); with no headroom the active count may still drop to zero
// and the cluster fast-fails dispatches until a replica recovers or
// boots.
func (c *WebCluster) Eject(i int, reason string) {
	if c.state[i] != ReplicaActive {
		return
	}
	c.state[i] = ReplicaDown
	c.activeCount--
	c.note(c.k.Now(), i, "eject", reason)
	if c.activeCount+c.Booting() < c.minActive {
		c.ScaleUp(c.backfillBoot, "eject backfill")
	}
}

// Readmit returns a recovered replica to the balancer rotation.
func (c *WebCluster) Readmit(i int, reason string) {
	if c.state[i] != ReplicaDown {
		return
	}
	c.state[i] = ReplicaActive
	c.activeCount++
	if c.activeCount > c.peakActive {
		c.peakActive = c.activeCount
	}
	c.note(c.k.Now(), i, "readmit", reason)
}
