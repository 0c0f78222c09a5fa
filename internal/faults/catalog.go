package faults

import (
	"fmt"
	"sort"
)

// Scenario is a named chaos experiment: a fault schedule plus the
// resilience configuration it is meant to exercise, and the topology
// minimums it needs to be meaningful. Scenarios join the load
// catalog's role as reproducible starting points for experiments.
type Scenario struct {
	Name    string
	Summary string
	// Load names a load.Spec catalog entry the scenario pairs well
	// with ("" = caller's choice).
	Load string
	// Topology minimums: the scenario requires at least this many web
	// replicas / DB read replicas / machines.
	MinWebReplicas int
	MinDBReplicas  int
	MinMachines    int
	Faults         Schedule
	Resilience     ResilienceSpec
}

func scenarios() map[string]Scenario {
	return map[string]Scenario{
		"kill-web-replica": {
			Name:           "kill-web-replica",
			Summary:        "crash web replica 1 mid-flash-crowd, recover after 60s; health checks eject and readmit it",
			Load:           "flash-crowd",
			MinWebReplicas: 2,
			Faults: Schedule{
				WebCrash: &Component{AtSeconds: 150, MTTRSeconds: 60, Targets: []int{1}},
			},
			Resilience: *DefaultResilience(),
		},
		"primary-failover": {
			Name:          "primary-failover",
			Summary:       "kill the DB primary under steady load; a read replica is promoted after the detection window",
			Load:          "steady",
			MinDBReplicas: 1,
			Faults: Schedule{
				DBCrash: &Component{AtSeconds: 120, Targets: []int{0}},
			},
			Resilience: *DefaultResilience(),
		},
		"rack-loss": {
			Name:           "rack-loss",
			Summary:        "a shared-fate rack holding machines 0 and 1 fails together at t=180s and is restored after ~90s",
			Load:           "steady",
			MinWebReplicas: 2,
			MinMachines:    2,
			Faults: Schedule{
				Correlation: &Correlation{
					Groups: []SharedFateGroup{{
						Name: "rack0", Machines: []int{0, 1},
						AtSeconds: 180, MTTRSeconds: 90,
					}},
				},
			},
			Resilience: *DefaultResilience(),
		},
		"peak-storm": {
			Name:           "peak-storm",
			Summary:        "a diurnal fault storm crashes web replicas at 3x the base rate around the load peak",
			Load:           "diurnal",
			MinWebReplicas: 3,
			Faults: Schedule{
				Correlation: &Correlation{
					Storms: []Storm{{
						Name: "peak", Component: "web_crash",
						RatePerHour: 30, Profile: ProfileDiurnal,
						PeriodSeconds: 600, PeakSeconds: 300, PeakFactor: 3,
						MTTRSeconds: 45,
					}},
				},
			},
			Resilience: *DefaultResilience(),
		},
		"load-cascade": {
			Name:           "load-cascade",
			Summary:        "one web replica crashes exogenously; the survivors' overload feeds a load-coupled crash hazard",
			Load:           "flash-crowd",
			MinWebReplicas: 3,
			Faults: Schedule{
				WebCrash: &Component{AtSeconds: 150, MTTRSeconds: 120, Targets: []int{1}},
				Hazard:   &HazardSpec{UtilThreshold: 4, CrashProb: 0.05, MTTRSeconds: 60, MaxCrashes: 2},
			},
			Resilience: *DefaultResilience(),
		},
		"brownout": {
			Name:           "brownout",
			Summary:        "load-cascade with the overload controller armed: optional reads brown out before the hazard can compound",
			Load:           "flash-crowd",
			MinWebReplicas: 3,
			Faults: Schedule{
				WebCrash: &Component{AtSeconds: 150, MTTRSeconds: 120, Targets: []int{1}},
				Hazard:   &HazardSpec{UtilThreshold: 4, CrashProb: 0.05, MTTRSeconds: 60, MaxCrashes: 2},
			},
			Resilience: func() ResilienceSpec {
				r := *DefaultResilience()
				r.Brownout = &BrownoutSpec{EnterUtil: 2, ExitUtil: 1, DropFraction: 0.5, MaxLevel: 2}
				return r
			}(),
		},
		"autoscaler-chaos": {
			Name:           "autoscaler-chaos",
			Summary:        "web replicas crash mid-scale-up under a ramp; ejection must not starve minActive and the scaler must not double-provision",
			Load:           "flash-crowd",
			MinWebReplicas: 2,
			Faults: Schedule{
				WebCrash: &Component{AtSeconds: 200, MTTFSeconds: 240, MTTRSeconds: 90, Targets: []int{0, 1}},
			},
			Resilience: *DefaultResilience(),
		},
		"slow-machine": {
			Name:        "slow-machine",
			Summary:     "machine 0 limps at 3x CPU demand for 120s; retries and the breaker keep the tail bounded",
			Load:        "steady",
			MinMachines: 1,
			Faults: Schedule{
				SlowNode: &Component{AtSeconds: 100, MTTRSeconds: 120, Value: 3, Targets: []int{0}},
			},
			Resilience: func() ResilienceSpec {
				r := *DefaultResilience()
				r.Breaker = &BreakerSpec{ErrorThreshold: 0.5, WindowRequests: 64, OpenMillis: 1000}
				return r
			}(),
		},
	}
}

// ScenarioNames lists catalog entries in sorted order.
func ScenarioNames() []string {
	m := scenarios()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ScenarioByName looks up a catalog entry.
func ScenarioByName(name string) (Scenario, error) {
	if s, ok := scenarios()[name]; ok {
		return s, nil
	}
	return Scenario{}, fmt.Errorf("faults: unknown chaos scenario %q (have %v)", name, ScenarioNames())
}
