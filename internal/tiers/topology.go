package tiers

import (
	"fmt"

	"vwchar/internal/sim"
)

// LBPolicy names a load-balancing discipline for dispatching client
// requests across web replicas.
type LBPolicy string

const (
	// LBRoundRobin cycles through the active replicas in index order.
	LBRoundRobin LBPolicy = "round-robin"
	// LBLeastInFlight picks the active replica with the fewest requests
	// between dispatch and response (counts requests still in transit).
	LBLeastInFlight LBPolicy = "least-inflight"
	// LBJoinShortestQueue picks the active replica with the fewest
	// requests resident at the server (executing plus queued).
	LBJoinShortestQueue LBPolicy = "jsq"
)

// Autoscaler policy names.
const (
	// AutoscaleReactive scales on consecutive windows whose p95 crossed
	// the SLO (up) or stayed well under it (down).
	AutoscaleReactive = "reactive"
	// AutoscalePredictive additionally projects the p95 trend a few
	// windows ahead and scales up before the SLO is crossed.
	AutoscalePredictive = "predictive"
)

// Bounds on topology size. They exist to catch config typos (replicas
// swapped with clients), not to model real rack limits.
const (
	MaxWebReplicaCap    = 32
	MaxDBReadReplicaCap = 8
	MaxMachineCap       = 16
)

// AutoscalerSpec configures the in-loop autoscaler. All window counts
// are in collector sampling windows (2 s each).
type AutoscalerSpec struct {
	// Policy selects the scaling rule: "reactive" (default) or
	// "predictive".
	Policy string
	// SLOMillis is the per-window p95 response-time objective.
	SLOMillis float64
	// ScaleUpWindows is how many consecutive violating windows trigger a
	// scale-up (default 2); ScaleDownWindows how many calm windows
	// trigger a drain (default 15).
	ScaleUpWindows   int
	ScaleDownWindows int
	// LowFraction marks a window calm when p95 < LowFraction*SLOMillis
	// (default 0.3).
	LowFraction float64
	// CooldownSeconds is the minimum time between scaling operations
	// (default 30).
	CooldownSeconds float64
	// BootSeconds is the provisioning delay between a scale-up decision
	// and the replica taking traffic (default 20).
	BootSeconds float64
	// LookaheadWindows is how far the predictive policy projects the p95
	// trend (default 5; ignored by the reactive policy).
	LookaheadWindows int
}

// withDefaults returns a copy with zero-valued knobs resolved.
func (a AutoscalerSpec) withDefaults() AutoscalerSpec {
	if a.Policy == "" {
		a.Policy = AutoscaleReactive
	}
	if a.ScaleUpWindows <= 0 {
		a.ScaleUpWindows = 2
	}
	if a.ScaleDownWindows <= 0 {
		a.ScaleDownWindows = 15
	}
	if a.LowFraction <= 0 {
		a.LowFraction = 0.3
	}
	if a.CooldownSeconds <= 0 {
		a.CooldownSeconds = 30
	}
	if a.BootSeconds <= 0 {
		a.BootSeconds = 20
	}
	if a.LookaheadWindows <= 0 {
		a.LookaheadWindows = 5
	}
	return a
}

// Validate checks the spec.
func (a *AutoscalerSpec) Validate() error {
	switch a.Policy {
	case "", AutoscaleReactive, AutoscalePredictive:
	default:
		return fmt.Errorf("autoscaler: unknown policy %q", a.Policy)
	}
	if a.SLOMillis <= 0 {
		return fmt.Errorf("autoscaler: SLOMillis must be > 0, got %v", a.SLOMillis)
	}
	if a.ScaleUpWindows < 0 || a.ScaleDownWindows < 0 || a.LookaheadWindows < 0 {
		return fmt.Errorf("autoscaler: window counts must be >= 0")
	}
	if a.LowFraction < 0 || a.LowFraction >= 1 {
		return fmt.Errorf("autoscaler: LowFraction must be in [0,1), got %v", a.LowFraction)
	}
	if a.CooldownSeconds < 0 || a.BootSeconds < 0 {
		return fmt.Errorf("autoscaler: cooldown/boot seconds must be >= 0")
	}
	return nil
}

// Topology describes a cluster-scale deployment: web replicas behind a
// load balancer, a DB primary with read replicas, and the placement of
// those guests onto physical machines. The zero value (normalized)
// is the degenerate 1-web/1-DB single-host pair the paper profiles,
// and runs byte-identical to the pre-topology code path.
type Topology struct {
	// WebReplicas is the number of web replicas taking traffic at t=0.
	WebReplicas int
	// MaxWebReplicas is the number of web replicas provisioned (booted
	// VMs the autoscaler may activate); defaults to WebReplicas.
	MaxWebReplicas int
	// DBReadReplicas is the number of DB read replicas behind the
	// primary. Reads fan out round-robin; writes always hit the primary.
	DBReadReplicas int
	// LB selects the dispatch policy (default round-robin).
	LB LBPolicy
	// Machines is the number of physical machines guests are placed on.
	Machines int
	// ReplicaLagSeconds is the replication lag window: a session that
	// wrote within it reads from the primary (read-your-writes).
	ReplicaLagSeconds float64
	// Autoscaler, when set, closes the loop: it watches the telemetry
	// windows mid-run and activates/drains web replicas.
	Autoscaler *AutoscalerSpec
}

// Normalized returns a copy with defaults resolved: zero replica and
// machine counts become 1, MaxWebReplicas is raised to WebReplicas,
// the LB policy defaults to round-robin, and the replica lag defaults
// to 500 ms when read replicas exist.
func (t Topology) Normalized() Topology {
	if t.WebReplicas <= 0 {
		t.WebReplicas = 1
	}
	if t.MaxWebReplicas < t.WebReplicas {
		t.MaxWebReplicas = t.WebReplicas
	}
	if t.Machines <= 0 {
		t.Machines = 1
	}
	if t.LB == "" {
		t.LB = LBRoundRobin
	}
	if t.DBReadReplicas > 0 && t.ReplicaLagSeconds <= 0 {
		t.ReplicaLagSeconds = 0.5
	}
	if t.Autoscaler != nil {
		a := t.Autoscaler.withDefaults()
		t.Autoscaler = &a
	}
	return t
}

// Validate checks the topology (before normalization).
func (t *Topology) Validate() error {
	if t.WebReplicas < 0 || t.WebReplicas > MaxWebReplicaCap {
		return fmt.Errorf("topology: WebReplicas %d out of range [0,%d]", t.WebReplicas, MaxWebReplicaCap)
	}
	if t.MaxWebReplicas != 0 {
		if t.MaxWebReplicas > MaxWebReplicaCap {
			return fmt.Errorf("topology: MaxWebReplicas %d exceeds cap %d", t.MaxWebReplicas, MaxWebReplicaCap)
		}
		if t.MaxWebReplicas < t.WebReplicas {
			return fmt.Errorf("topology: MaxWebReplicas %d < WebReplicas %d", t.MaxWebReplicas, t.WebReplicas)
		}
	}
	if t.DBReadReplicas < 0 || t.DBReadReplicas > MaxDBReadReplicaCap {
		return fmt.Errorf("topology: DBReadReplicas %d out of range [0,%d]", t.DBReadReplicas, MaxDBReadReplicaCap)
	}
	switch t.LB {
	case "", LBRoundRobin, LBLeastInFlight, LBJoinShortestQueue:
	default:
		return fmt.Errorf("topology: unknown lb policy %q", t.LB)
	}
	if t.Machines < 0 || t.Machines > MaxMachineCap {
		return fmt.Errorf("topology: machines %d out of range [0,%d]", t.Machines, MaxMachineCap)
	}
	if t.ReplicaLagSeconds < 0 {
		return fmt.Errorf("topology: ReplicaLagSeconds must be >= 0")
	}
	if t.Autoscaler != nil {
		if err := t.Autoscaler.Validate(); err != nil {
			return err
		}
		if t.Autoscaler.SLOMillis > 0 {
			n := t.Normalized()
			if n.MaxWebReplicas <= n.WebReplicas {
				return fmt.Errorf("topology: autoscaler needs MaxWebReplicas > WebReplicas to have headroom")
			}
		}
	}
	return nil
}

// IsDegenerate reports whether the (normalized) topology is the single
// 1-web/1-DB pair on one machine with no autoscaler — the configuration
// whose event sequence is pinned byte-identical to the pre-topology
// code path by the golden sweep hash.
func (t Topology) IsDegenerate() bool {
	n := t.Normalized()
	return n.WebReplicas == 1 && n.MaxWebReplicas == 1 &&
		n.DBReadReplicas == 0 && n.Machines == 1 && n.Autoscaler == nil
}

// VMCount is the number of guests the (normalized) topology provisions:
// every web replica up to the max, the DB primary, and the read
// replicas.
func (t Topology) VMCount() int { return t.MaxWebReplicas + 1 + t.DBReadReplicas }

// MachineFor maps a VM index to its machine index, round-robin. VM
// order: web replicas 0..MaxWebReplicas-1, then the DB primary, then
// the read replicas.
func (t Topology) MachineFor(vm int) int { return vm % t.Machines }

// ReplicaLag is the replication lag as sim time.
func (t Topology) ReplicaLag() sim.Time { return sim.Seconds(t.ReplicaLagSeconds) }
