// Command characterize computes workload statistics two ways:
//
// With a trace argument it recomputes statistics from an exported series
// CSV (as written by rubisim -csv or cmd/figures): summary statistics,
// distribution fit, autocorrelation, and jump detection — the
// trace-analysis half of the paper without rerunning the simulation.
//
// With no argument it runs the paper's full 2-env × 5-mix experiment
// grid through the parallel sweep runner, replicating every point with
// independent seeds, and prints each metric as mean ± 95% confidence
// interval plus the distribution fit of the web tier's CPU demand. The
// aggregated output is byte-identical for a given -seed regardless of
// -workers.
//
// Usage:
//
//	characterize trace.csv
//	characterize [-workers N] [-replications R] [-seed S] [-clients C] [-duration SEC]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vwchar"
	"vwchar/internal/sim"
	"vwchar/internal/stats"
	"vwchar/internal/timeseries"
)

func main() {
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	replications := flag.Int("replications", 3, "replications per sweep point")
	seed := flag.Uint64("seed", 42, "root seed for the sweep")
	clients := flag.Int("clients", 200, "closed-loop client population per point")
	duration := flag.Float64("duration", 120, "profiled window per replication in seconds")
	flag.Parse()

	switch flag.NArg() {
	case 0:
		opts := sweepOptions{
			Workers:      *workers,
			Replications: *replications,
			Seed:         *seed,
			Clients:      *clients,
			Duration:     *duration,
			Progress:     os.Stderr,
		}
		if err := runSweep(opts, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "characterize:", err)
			os.Exit(1)
		}
	case 1:
		if err := run(flag.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "characterize:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: characterize [flags] [trace.csv]")
		os.Exit(2)
	}
}

type sweepOptions struct {
	Workers      int
	Replications int
	Seed         uint64
	Clients      int
	Duration     float64
	// Progress receives live per-job completion lines (nil to disable).
	Progress io.Writer
}

// runSweep characterizes the full experiment grid: aggregate statistics
// across replications per point, then the distribution family of the
// web tier's CPU demand pooled over that point's replications.
func runSweep(opts sweepOptions, w io.Writer) error {
	if opts.Replications < 1 {
		opts.Replications = 1
	}
	points := vwchar.FullSweepGrid(func(c *vwchar.Config) {
		c.Clients = opts.Clients
		c.Duration = sim.Seconds(opts.Duration)
	})
	spec := vwchar.SweepSpec{
		Points:       points,
		Replications: opts.Replications,
		RootSeed:     opts.Seed,
		Workers:      opts.Workers,
	}
	if opts.Progress != nil {
		spec.OnProgress = func(p vwchar.SweepProgress) {
			status := "ok"
			if p.Err != nil {
				status = "FAILED"
			}
			fmt.Fprintf(opts.Progress, "[%d/%d] %s rep %d %s\n", p.Done, p.Total, p.Job.Point, p.Job.Rep, status)
		}
	}
	// On a partial failure the runner still aggregates every point over
	// its surviving replications — render what completed, then report
	// the sweep error so one bad replication can't discard the rest.
	sr, sweepErr := vwchar.Sweep(spec)
	if sr == nil {
		return sweepErr
	}

	fmt.Fprintf(w, "full grid: %d points x %d replications, root seed %d\n\n",
		len(points), opts.Replications, opts.Seed)
	if err := sr.WriteTable(w); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nweb-tier CPU demand, pooled across replications:\n")
	for i := range sr.Points {
		pr := &sr.Points[i]
		// Marginal statistics (CoV, distribution fit) pool samples across
		// replications; lag-1 autocorrelation is a time statistic, so it
		// is computed per replication and averaged — concatenating
		// independent runs would fabricate adjacency at the junctions.
		var pooled []float64
		var lag1 []float64
		for _, rep := range pr.Reps {
			if rep == nil {
				continue
			}
			values := rep.Resource(vwchar.TierWeb, vwchar.CPU).Values
			pooled = append(pooled, values...)
			lag1 = append(lag1, stats.Autocorrelation(values, 1))
		}
		if len(pooled) == 0 {
			continue
		}
		s := stats.Summarize(pooled)
		line := fmt.Sprintf("  %-24s cov %.3f  lag1 %.3f", pr.Point.Name, s.CoV, stats.Mean(lag1))
		if dist, ks, err := stats.BestFit(pooled); err == nil {
			line += fmt.Sprintf("  best fit %s (KS %.4f)", dist.Name(), ks)
		}
		fmt.Fprintln(w, line)
	}
	return sweepErr
}

func run(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	series, err := timeseries.ReadCSV(f)
	if err != nil {
		return err
	}
	fmt.Printf("series %q: %d samples at %.0f s interval\n\n",
		series.Name, series.Len(), series.Interval)

	s := stats.Summarize(series.Values)
	fmt.Printf("mean %.4g  std %.4g  cov %.3f  min %.4g  max %.4g\n",
		s.Mean, s.Std, s.CoV, s.Min, s.Max)
	fmt.Printf("median %.4g  p95 %.4g  p99 %.4g  skewness %.3f\n\n",
		s.Median, s.P95, s.P99, s.Skewness)

	if dist, ks, err := stats.BestFit(series.Values); err == nil {
		fmt.Printf("best-fit distribution: %s (%s), KS distance %.4f\n",
			dist.Name(), dist.Params(), ks)
	} else {
		fmt.Printf("no distribution family fits: %v\n", err)
	}

	fmt.Printf("autocorrelation: lag1 %.3f  lag5 %.3f  lag30 %.3f\n",
		stats.Autocorrelation(series.Values, 1),
		stats.Autocorrelation(series.Values, 5),
		stats.Autocorrelation(series.Values, 30))

	jumps := stats.DetectJumps(series.Values, 15, s.Std)
	if len(jumps) == 0 {
		fmt.Println("no sustained level shifts detected")
		return nil
	}
	fmt.Printf("%d sustained level shift(s):\n", len(jumps))
	for _, j := range jumps {
		fmt.Printf("  t=%.0fs  %.4g -> %.4g (delta %.4g)\n",
			series.TimeAt(j.Index), j.Before, j.After, j.Magnitude())
	}
	return nil
}
