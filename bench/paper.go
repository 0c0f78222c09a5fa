package main

import (
	"fmt"
	"math"

	"vwchar/internal/characterize"
	"vwchar/internal/experiment"
	"vwchar/internal/runner"
)

// paperBrowsing holds the twelve browsing-mix ratios the paper reports,
// each as cpu, ram, disk, network:
//
//   - §4.1 front-end / back-end demand (web+app VM over MySQL VM);
//   - §4.1 aggregated VMs / dom0;
//   - §4.2 non-virtualized aggregate / virtualized dom0.
var paperBrowsing = [3][4]float64{
	{6.11, 3.29, 5.71, 55.56},
	{16.84, 0.58, 0.47, 0.98},
	{3.47, 0.97, 0.60, 0.98},
}

// simulatedBrowsing computes the same twelve ratios from one virtualized
// and one physical browsing run.
func simulatedBrowsing(virt, phys *experiment.Result) [3][4]float64 {
	flat := func(r characterize.Ratios) [4]float64 { return [4]float64{r.CPU, r.RAM, r.Disk, r.Network} }
	return [3][4]float64{
		flat(characterize.TierRatios(virt)),
		flat(characterize.VMToDom0Ratios(virt)),
		flat(characterize.EnvAggregateRatios(virt, phys)),
	}
}

// paperRatioErr is the mean |ln(sim/paper)| over the twelve ratios and
// every replication that has both browsing points. ok is false when the
// sweep lacks either point, so the readout does not apply.
func paperRatioErr(sr *runner.SweepResult) (value float64, ok bool, err error) {
	virt := sr.Point(fmt.Sprintf("%s/%s", experiment.Virtualized, experiment.MixBrowsing))
	phys := sr.Point(fmt.Sprintf("%s/%s", experiment.Physical, experiment.MixBrowsing))
	if virt == nil || phys == nil {
		return 0, false, nil
	}
	sum, n := 0.0, 0
	for r := range virt.Reps {
		if virt.Reps[r] == nil || phys.Reps[r] == nil {
			continue
		}
		got := simulatedBrowsing(virt.Reps[r], phys.Reps[r])
		for i := range got {
			for j, sim := range got[i] {
				if !(sim > 0) {
					return 0, true, fmt.Errorf("paper ratio %d.%d is %v, not positive", i, j, sim)
				}
				sum += math.Abs(math.Log(sim / paperBrowsing[i][j]))
				n++
			}
		}
	}
	if n == 0 {
		return 0, true, fmt.Errorf("no replication has both browsing points")
	}
	return sum / float64(n), true, nil
}
