// Command bench is the repository benchmark. It runs one of four sweep
// workloads through the simulator's public entry points, checks the
// simulator's output, and prints every metric by name with its unit,
// then one JSON line:
//
//	bash bench/run.sh --workload paper-grid --seed 42 --seconds 25 --trace 0
//	cd bench && go run . -workload all
//
// With -trace 0 the run is timed and reports the end-to-end metrics;
// with -trace 1 it reports the per-layer metrics from a separate
// traced, profiled run and writes the CPU profile, the spans and the
// metric lines under -trace-dir. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	reps     int
	trace    int
	traceDir string
	scale    float64
}

// metricValue is one reported metric.
type metricValue struct {
	name  string
	value float64
	unit  string
}

// errCheck marks a run that completed but failed its output checks.
var errCheck = errors.New("output check failed")

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name, or all")
	fs.Uint64Var(&o.seed, "seed", 42, "sweep root seed")
	fs.Float64Var(&o.seconds, "seconds", 25, "time budget of the timed sweeps")
	fs.IntVar(&o.reps, "reps", 3, "minimum number of timed sweeps")
	fs.IntVar(&o.trace, "trace", 0, "0: timed end-to-end run; 1: traced per-layer run")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "where a traced run writes its profile, spans and metric lines")
	fs.Float64Var(&o.scale, "scale", 1, "workload size; below 1 shrinks every workload (tests)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	switch {
	case fs.NArg() > 0:
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.workload == "":
		return options{}, fmt.Errorf("-workload is required")
	case o.trace != 0 && o.trace != 1:
		return options{}, fmt.Errorf("-trace must be 0 or 1")
	case o.reps < 1 || o.seconds <= 0 || o.scale <= 0 || o.scale > 1:
		return options{}, fmt.Errorf("need -reps >= 1, -seconds > 0 and 0 < -scale <= 1")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if o.workload == "all" {
		err = runAll(o)
	} else {
		err = run(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in its own process, one after another, so
// each process's peak RSS belongs to one workload.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range workloads {
		cmd := exec.Command(self,
			"-workload", w.name,
			"-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-reps", strconv.Itoa(o.reps),
			"-trace", strconv.Itoa(o.trace),
			"-trace-dir", o.traceDir,
			"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed", failed, len(workloads))
	}
	return nil
}

// run executes one workload and writes its report to out, ending with
// the JSON line. A run whose output checks fail still writes the report,
// with correct=false, and returns errCheck.
func run(o options, out io.Writer) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	g, err := loadGoldens(goldenJSON)
	if err != nil {
		return err
	}
	spec, err := w.spec(o.seed, o.scale)
	if err != nil {
		return err
	}
	spec.Workers = runtime.NumCPU()
	fmt.Fprintf(out, "workload %s  seed %d  scale %g  workers %d  jobs/sweep %d\n",
		w.name, o.seed, o.scale, spec.Workers, len(spec.Jobs()))

	var metrics []metricValue
	var problems []string
	attempted, failed := 0, 0
	if o.trace == 1 {
		t, err := traceRun(w.name, spec, o)
		if err != nil {
			return err
		}
		metrics, problems = t.metrics, t.problems
		attempted, failed = t.jobs, t.failed
	} else {
		m, err := measure(spec, o.seconds, o.reps, scaled(setupBuilds, o.scale, 1))
		if err != nil {
			return err
		}
		metrics = m.endToEnd()
		problems = m.check(w.name, o.seed, o.scale, g)
		for _, s := range m.sweeps {
			attempted += s.jobs
			failed += s.failed
		}
		first := m.sweeps[0]
		for i, s := range m.sweeps {
			fmt.Fprintf(out, "sweep %d  wall %.3f s  cpu %.3f s  alloc %.1f MB  allocs %.3fe6  requests %d\n",
				i, s.wallS, s.cpuS, s.allocMB, s.allocsM, s.requests)
		}
		fmt.Fprintf(out, "sweeps %d (medians below)  setup builds %d\n", len(m.sweeps), len(m.setupS))
		fmt.Fprintf(out, "output_sha256 %s\n", first.sha256)
		if first.hasRatio {
			fmt.Fprintf(out, "paper_ratio_err %s\n", formatRatioErr(first))
		}
		fmt.Fprintf(out, "failed_frac %g (%d of %d jobs)\n", float64(failed)/float64(attempted), failed, attempted)
	}
	for _, mv := range metrics {
		fmt.Fprintf(out, "%-32s %16.6f %s\n", mv.name, mv.value, mv.unit)
	}
	for _, p := range problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	if err := writeJSON(out, len(problems) == 0, attempted, failed, metrics); err != nil {
		return err
	}
	if len(problems) > 0 {
		return errCheck
	}
	return nil
}

// setupBuilds is how many times a timed run builds its golden dataset;
// setup_s is their median.
const setupBuilds = 11

// writeJSON writes the machine-readable result as the last line.
func writeJSON(out io.Writer, correct bool, attempted, failed int, metrics []metricValue) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jsonMetric, len(metrics))
	for _, m := range metrics {
		ms[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, attempted, failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
