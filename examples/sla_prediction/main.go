// SLA prediction: the paper's stated goal is "to predict SLA compliance
// or violation based on the projected application workload". This
// example fits a linear demand model (CPU cycles per request) from a
// profiling run, projects it to a higher client population, and checks
// the prediction against an actual run at that population.
package main

import (
	"fmt"
	"log"

	"vwchar"
	"vwchar/internal/sim"
	"vwchar/internal/stats"
)

func run(clients int) (*vwchar.Result, error) {
	cfg := vwchar.DefaultConfig(vwchar.Virtualized, vwchar.MixBrowsing)
	cfg.Clients = clients
	cfg.Duration = 180 * sim.Second
	return vwchar.Run(cfg)
}

func main() {
	// Profile at two modest populations to fit demand-vs-load.
	var loads, webDemand, dbDemand []float64
	for _, clients := range []int{200, 400, 600} {
		res, err := run(clients)
		if err != nil {
			log.Fatal(err)
		}
		rate := float64(res.Completed) / 180
		loads = append(loads, rate)
		webDemand = append(webDemand, res.Resource(vwchar.TierWeb, vwchar.CPU).Mean())
		dbDemand = append(dbDemand, res.Resource(vwchar.TierDB, vwchar.CPU).Mean())
		fmt.Printf("profiled %4d clients: %6.1f req/s, web %.3g cyc/2s, db %.3g cyc/2s\n",
			clients, rate, res.Resource(vwchar.TierWeb, vwchar.CPU).Mean(), res.Resource(vwchar.TierDB, vwchar.CPU).Mean())
	}

	webFit, err := stats.FitLinear(loads, webDemand)
	if err != nil {
		log.Fatal(err)
	}
	dbFit, err := stats.FitLinear(loads, dbDemand)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfitted demand models (R2 web %.3f, db %.3f):\n", webFit.R2, dbFit.R2)
	fmt.Printf("  webCycles/2s = %.3g + %.3g * req/s\n", webFit.A, webFit.B)
	fmt.Printf("  dbCycles/2s  = %.3g + %.3g * req/s\n", dbFit.A, dbFit.B)

	// Project to 1200 clients. The web VM has 2 VCPUs retiring ~620e6
	// guest cycles/s each: 2.48e9 per 2 s sample is the saturation line.
	const projectedClients = 1200
	projectedRate := float64(projectedClients) / 7.05 // think time + service
	predicted := webFit.Predict(projectedRate)
	capacity := 2 * 620e6 * 2.0
	util := predicted / capacity
	fmt.Printf("\nprojected %d clients -> %.0f req/s -> web demand %.3g cyc/2s (%.0f%% of VM capacity)\n",
		projectedClients, projectedRate, predicted, util*100)
	if util > 0.7 {
		fmt.Println("prediction: SLA AT RISK (queueing becomes nonlinear above ~70% utilization)")
	} else {
		fmt.Println("prediction: SLA compliant")
	}

	// Validate against an actual run.
	res, err := run(projectedClients)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("actual   %d clients -> %.1f req/s -> web demand %.3g cyc/2s, p95 %.1f ms\n",
		projectedClients, float64(res.Completed)/180, res.Resource(vwchar.TierWeb, vwchar.CPU).Mean(),
		res.P95RespTime*1e3)
	errPct := (webFit.Predict(float64(res.Completed)/180) - res.Resource(vwchar.TierWeb, vwchar.CPU).Mean()) /
		res.Resource(vwchar.TierWeb, vwchar.CPU).Mean() * 100
	fmt.Printf("demand prediction error at actual rate: %+.1f%%\n", errPct)
}
