// Quickstart: run the paper's two headline experiments (browse-only and
// bid-only RUBiS on a virtualized host) at reduced scale and print what
// the paper's Figure 1 shows — the three CPU demand curves — plus the
// front-end/back-end demand ratios.
package main

import (
	"fmt"
	"log"
	"os"

	"vwchar"
)

func main() {
	// 300 clients for 5 virtual minutes: same dynamics as the paper's
	// 1000-client, 20-minute runs, a few seconds of wall clock.
	pair, err := vwchar.RunPairScaled(vwchar.Virtualized, 42, 300, 300)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("browse: %d requests, mean response %.1f ms\n",
		pair.Browse.Completed, pair.Browse.MeanRespTime*1e3)
	fmt.Printf("bid:    %d requests, mean response %.1f ms (%.0f%% writes)\n\n",
		pair.Bid.Completed, pair.Bid.MeanRespTime*1e3, pair.Bid.WriteFraction*100)

	fig, err := vwchar.BuildFigure(1, pair.Browse, pair.Bid)
	if err != nil {
		log.Fatal(err)
	}
	if err := vwchar.RenderFigure(os.Stdout, fig); err != nil {
		log.Fatal(err)
	}

	ratios := vwchar.TierRatios(pair.Browse)
	ref := vwchar.Paper.TierRatios
	fmt.Printf("\nfront-end vs back-end demand (paper: %.2f cpu, %.2f ram, %.2f disk, %.2f net):\n",
		ref.CPU, ref.RAM, ref.Disk, ref.Network)
	fmt.Printf("  cpu %.2fx   ram %.2fx   disk %.2fx   net %.2fx\n",
		ratios.CPU, ratios.RAM, ratios.Disk, ratios.Network)
}
