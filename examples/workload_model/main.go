// Workload modeling: the paper's conclusion promises "formal methods to
// model the workload dynamics at both resource level and transaction
// level". This example does both:
//
//  1. resource level — fit each demand series with a marginal
//     distribution plus AR(1) dependence, and compare the web CPU
//     model's mean with the observed one;
//  2. transaction level — measure per-interaction resource footprints,
//     compose them with the mix's stationary distribution, and predict
//     the tier demand of a simulation that has not been run yet.
package main

import (
	"fmt"
	"log"

	"vwchar"
)

func main() {
	// Profile one virtualized browsing run.
	pair, err := vwchar.RunPairScaled(vwchar.Virtualized, 42, 400, 300)
	if err != nil {
		log.Fatal(err)
	}
	res := pair.Browse

	// --- Resource level.
	wm, err := vwchar.FitWorkloadModel(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("resource-level models (marginal + AR(1)):")
	for _, key := range wm.Keys() {
		fmt.Printf("  %s\n", wm.Series[key].String())
	}

	cpuModel := wm.Series["webapp/cpu"]
	fmt.Printf("\nweb CPU: observed mean %.3g; model mean %.3g; fitted family %s\n",
		res.Resource(vwchar.TierWeb, vwchar.CPU).Mean(), cpuModel.Mean, cpuModel.Dist.Name())

	// --- Transaction level.
	tm, err := vwchar.FitTransactionModel(vwchar.DefaultDataset(), 25, 7)
	if err != nil {
		log.Fatal(err)
	}
	rate := float64(res.Completed) / 300
	pred := tm.Predict(vwchar.BrowsingModel(), rate, 200000, 9)
	fmt.Printf("\ntransaction-level prediction at %.1f req/s (browsing):\n", rate)
	fmt.Printf("  predicted web CPU %.3g cyc/2s   actual %.3g\n",
		pred.WebCyclesPer2s, res.Resource(vwchar.TierWeb, vwchar.CPU).Mean())
	fmt.Printf("  predicted db  CPU %.3g cyc/2s   actual %.3g\n",
		pred.DBCyclesPer2s, res.Resource(vwchar.TierDB, vwchar.CPU).Mean())
	fmt.Printf("  predicted db net %.0f KB/2s      actual %.0f\n",
		pred.DBNetKBPer2s, res.Resource(vwchar.TierDB, vwchar.Net).Mean())

	// The same footprints predict a composition that was never profiled.
	bidPred := tm.Predict(vwchar.BiddingModel(), rate*0.85, 200000, 9)
	fmt.Printf("\nunprofiled bidding forecast at %.1f req/s: web %.3g, db %.3g cyc/2s, %.0f%% writes\n",
		rate*0.85, bidPred.WebCyclesPer2s, bidPred.DBCyclesPer2s, bidPred.WriteFraction*100)
	fmt.Printf("actual bid run:                            web %.3g, db %.3g cyc/2s, %.0f%% writes\n",
		pair.Bid.Resource(vwchar.TierWeb, vwchar.CPU).Mean(), pair.Bid.Resource(vwchar.TierDB, vwchar.CPU).Mean(),
		pair.Bid.WriteFraction*100)
}
