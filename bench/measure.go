package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/runner"
)

// mb is the byte count of the benchmark's MB unit.
const mb = 1 << 20

// sweepSample is one untraced sweep: host cost, simulated work, and the
// outputs the checks compare.
type sweepSample struct {
	wallS, cpuS      float64
	allocMB, allocsM float64
	requests         uint64
	jobs, failed     int
	sha256           string
	ratioErr         float64
	hasRatio         bool
}

// measurement is one timed run of a workload.
type measurement struct {
	setupS   []float64
	sweeps   []sweepSample
	maxRSSMB float64
}

// rusage returns the process's user+sys CPU seconds and its peak
// resident set in MB.
func rusage() (cpuS, maxRSSMB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	// Linux reports Maxrss in KiB.
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) * 1024 / mb, nil
}

// goldenDataset names the dataset a workload builds during set-up: the
// sweep-wide golden when the sweep shares one, otherwise a dataset of
// the same scale from a seed derived from the root seed, which times
// the population every job of that sweep repeats.
func goldenDataset(spec runner.SweepSpec) (cfg rubis.DatasetConfig, seed uint64, shared bool) {
	job := spec.Jobs()[0]
	if job.Config.DatasetSeed != 0 {
		return job.Config.Dataset, job.Config.DatasetSeed, true
	}
	return job.Config.Dataset, rng.NewSource(spec.RootSeed).SeedFor("bench-setup"), false
}

// setUp builds the workload's golden dataset n times and returns each
// build's wall time. For a shared golden the first build goes through
// the process-wide snapshot cache, so the sweeps that follow attach to
// it instead of populating.
func setUp(spec runner.SweepSpec, n int) ([]float64, error) {
	cfg, seed, shared := goldenDataset(spec)
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if i == 0 && shared {
			_, err = rubis.SharedSnapshot(cfg, seed)
		} else {
			_, err = rubis.NewSnapshot(cfg, seed)
		}
		if err != nil {
			return nil, fmt.Errorf("building golden dataset: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// timedSweep runs the sweep once through runner.Run and measures it,
// returning the result too. The heap is collected first so one sweep's
// garbage is not charged to the next.
func timedSweep(spec runner.SweepSpec) (sweepSample, *runner.SweepResult, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, _, err := rusage()
	if err != nil {
		return sweepSample{}, nil, err
	}
	t0 := time.Now()
	sr, runErr := runner.Run(spec)
	wall := time.Since(t0).Seconds()
	cpu1, _, err := rusage()
	if err != nil {
		return sweepSample{}, nil, err
	}
	runtime.ReadMemStats(&m1)
	if sr == nil {
		return sweepSample{}, nil, runErr
	}
	s := sweepSample{
		wallS:   wall,
		cpuS:    cpu1 - cpu0,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / mb,
		allocsM: float64(m1.Mallocs-m0.Mallocs) / 1e6,
		failed:  len(sr.Failures),
	}
	for i := range sr.Points {
		for _, rep := range sr.Points[i].Reps {
			s.jobs++
			if rep != nil {
				s.requests += rep.Completed
			}
		}
	}
	if s.sha256, err = tableHash(sr); err != nil {
		return sweepSample{}, nil, err
	}
	if s.ratioErr, s.hasRatio, err = paperRatioErr(sr); err != nil {
		return sweepSample{}, nil, err
	}
	return s, sr, nil
}

// tableHash is the SHA-256 of the sweep's aggregated table, the
// simulator's deterministic output surface.
func tableHash(sr *runner.SweepResult) (string, error) {
	var buf bytes.Buffer
	if err := sr.WriteTable(&buf); err != nil {
		return "", fmt.Errorf("writing sweep table: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// measure sets the workload up, then repeats its sweep until the time
// budget would be exceeded by one more sweep, and at least minSweeps
// times.
func measure(spec runner.SweepSpec, seconds float64, minSweeps, setupBuilds int) (*measurement, error) {
	setupS, err := setUp(spec, setupBuilds)
	if err != nil {
		return nil, err
	}
	m := &measurement{setupS: setupS}
	start := time.Now()
	for len(m.sweeps) < minSweeps || time.Since(start).Seconds()+m.sweeps[len(m.sweeps)-1].wallS <= seconds {
		s, _, err := timedSweep(spec)
		if err != nil {
			return nil, err
		}
		m.sweeps = append(m.sweeps, s)
	}
	if _, m.maxRSSMB, err = rusage(); err != nil {
		return nil, err
	}
	return m, nil
}

// endToEnd reports the user-visible metrics: medians over the run's
// set-up builds and sweeps.
func (m *measurement) endToEnd() []metricValue {
	col := func(f func(sweepSample) float64) float64 {
		xs := make([]float64, len(m.sweeps))
		for i, s := range m.sweeps {
			xs[i] = f(s)
		}
		return median(xs)
	}
	return []metricValue{
		{"setup_s", median(m.setupS), "s"},
		{"sweep_s", col(func(s sweepSample) float64 { return s.wallS }), "s"},
		{"cpu_s", col(func(s sweepSample) float64 { return s.cpuS }), "s"},
		{"req_per_s", col(func(s sweepSample) float64 { return float64(s.requests) / s.wallS }), "req/s"},
		{"alloc_mb", col(func(s sweepSample) float64 { return s.allocMB }), "MB"},
		{"allocs_m", col(func(s sweepSample) float64 { return s.allocsM }), "1e6"},
		{"max_rss_mb", m.maxRSSMB, "MB"},
	}
}

// check compares every sweep's output with the first one, and with the
// pinned golden when the run is at the golden seed and full scale. It
// returns one line per problem.
func (m *measurement) check(name string, seed uint64, scale float64, g goldens) []string {
	var problems []string
	first := m.sweeps[0]
	for i, s := range m.sweeps {
		if s.failed > 0 {
			problems = append(problems, fmt.Sprintf("sweep %d: %d of %d jobs failed", i, s.failed, s.jobs))
		}
		if s.sha256 != first.sha256 {
			problems = append(problems, fmt.Sprintf("sweep %d: output sha256 %s differs from sweep 0's %s", i, s.sha256, first.sha256))
		}
		if formatRatioErr(s) != formatRatioErr(first) {
			problems = append(problems, fmt.Sprintf("sweep %d: paper_ratio_err %s differs from sweep 0's %s", i, formatRatioErr(s), formatRatioErr(first)))
		}
	}
	if seed == g.Seed && scale == 1 {
		want, ok := g.Workloads[name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("no golden output pinned for %s", name))
		case want.SHA256 != first.sha256:
			problems = append(problems, fmt.Sprintf("output sha256 %s, golden %s", first.sha256, want.SHA256))
		case want.PaperRatioErr != formatRatioErr(first):
			problems = append(problems, fmt.Sprintf("paper_ratio_err %q, golden %q", formatRatioErr(first), want.PaperRatioErr))
		}
	}
	return problems
}

// formatRatioErr renders the fidelity readout as it is pinned and
// compared; empty when the workload lacks the browsing points. The
// readout is compared to nine decimals, not bit for bit: hw.Memory.Used
// sums a map, so the RAM series (and this readout) can differ in the
// last bits from run to run, below the precision WriteTable prints.
func formatRatioErr(s sweepSample) string {
	if !s.hasRatio {
		return ""
	}
	return fmt.Sprintf("%.9f", s.ratioErr)
}

// median of xs (which it sorts in place); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
