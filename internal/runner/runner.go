// Package runner executes experiment sweeps in parallel.
//
// The sim kernel is intentionally single-threaded (see package sim), so
// parallelism lives above it: every replication of every sweep point
// constructs its own isolated kernel inside experiment.Run, and the
// runner fans those independent jobs out over a bounded worker pool.
// Each job derives its own deterministic RNG seed from the sweep's root
// seed and the job's stable name, so the numbers a job produces depend
// only on the spec — never on worker count, scheduling order, or which
// other points are in the grid. Results are collected keyed by job index
// rather than completion order, which makes the aggregated output
// byte-identical at workers=1 and workers=64.
package runner

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sync"

	"vwchar/internal/experiment"
	"vwchar/internal/load"
	"vwchar/internal/rng"
	"vwchar/internal/stats"
)

// Point is one sweep coordinate: a named experiment configuration. The
// name doubles as the RNG substream label, so it must be stable and
// unique within a spec.
type Point struct {
	Name   string
	Config experiment.Config
}

// Grid builds the env × mix cartesian product from the paper's default
// configurations. mutate, when non-nil, adjusts each config in place
// (scale clients, shorten duration, ...) before it becomes a point.
func Grid(envs []experiment.Env, mixes []experiment.MixKind, mutate func(*experiment.Config)) []Point {
	points := make([]Point, 0, len(envs)*len(mixes))
	for _, env := range envs {
		for _, mix := range mixes {
			cfg := experiment.DefaultConfig(env, mix)
			if mutate != nil {
				mutate(&cfg)
			}
			points = append(points, Point{
				Name:   fmt.Sprintf("%s/%s", env, mix),
				Config: cfg,
			})
		}
	}
	return points
}

// FullGrid is the paper's complete sweep: both deployments crossed with
// all five request compositions.
func FullGrid(mutate func(*experiment.Config)) []Point {
	return Grid(experiment.Envs(), experiment.Mixes(), mutate)
}

// LoadGrid builds the env × load-scenario cartesian product at a fixed
// mix: the open-loop analogue of Grid. Every point carries its own copy
// of the scenario spec, so mutate (and later sweeps) can adjust rates
// point-locally without aliasing the catalog.
func LoadGrid(envs []experiment.Env, mix experiment.MixKind, scenarios []load.NamedSpec, mutate func(*experiment.Config)) []Point {
	points := make([]Point, 0, len(envs)*len(scenarios))
	for _, env := range envs {
		for _, sc := range scenarios {
			cfg := experiment.DefaultConfig(env, mix)
			spec := sc.Spec
			// Deep-copy the trace so a mutate that rescales knots
			// point-locally cannot write through a backing array shared
			// with other points or the caller's scenario.
			if len(spec.TracePoints) > 0 {
				spec.TracePoints = append([]load.TracePoint(nil), spec.TracePoints...)
			}
			cfg.Load = &spec
			if mutate != nil {
				mutate(&cfg)
			}
			points = append(points, Point{
				Name:   fmt.Sprintf("%s/%s/%s", env, mix, sc.Name),
				Config: cfg,
			})
		}
	}
	return points
}

// Progress reports one completed (or failed) job. Callbacks arrive from
// worker goroutines but are serialized by the runner; Done counts jobs
// finished so far out of Total.
type Progress struct {
	Done, Total int
	Job         Job
	Err         error
}

// SweepSpec describes a sweep: every point is run Replications times,
// each replication with an independent seed derived from RootSeed.
type SweepSpec struct {
	Points       []Point
	Replications int // per point; default 1
	RootSeed     uint64
	Workers      int // bounded pool size; default GOMAXPROCS
	// OnProgress, when non-nil, is invoked after every job completes.
	OnProgress func(Progress)
}

// Job is one replication of one point, with its derived seed already
// applied to the config.
type Job struct {
	// Index is the job's position in the deterministic expansion order
	// (point-major, replication-minor); results are keyed by it.
	Index      int
	PointIndex int
	Rep        int
	Point      string
	Config     experiment.Config
}

// JobError records a replication that returned an error or panicked.
type JobError struct {
	Job Job
	Err error
}

func (e JobError) Error() string {
	return fmt.Sprintf("runner: %s rep %d: %v", e.Job.Point, e.Job.Rep, e.Err)
}

// Metric is one scalar aggregated across a point's replications.
type Metric struct {
	N    int
	Mean float64
	Std  float64 // unbiased sample standard deviation (0 when N < 2)
	// CI95 is the half-width of the 95% confidence interval for the
	// mean (Student's t; 0 when N < 2).
	CI95 float64
}

// NamedMetric pairs a metric with its stable name; PointResult keeps an
// ordered slice rather than a map so output iteration is deterministic.
type NamedMetric struct {
	Name   string
	Metric Metric
}

// PointResult is one sweep coordinate with its per-replication results
// and across-replication aggregates.
type PointResult struct {
	Point Point
	// Reps holds each replication's full result, indexed by rep; a nil
	// entry marks a failed replication.
	Reps    []*experiment.Result
	Metrics []NamedMetric
}

// Metric returns the aggregate for name, or a zero Metric when the
// point does not report it (e.g. dom0 metrics on a physical point).
func (p *PointResult) Metric(name string) Metric {
	for _, nm := range p.Metrics {
		if nm.Name == name {
			return nm.Metric
		}
	}
	return Metric{}
}

// SweepResult is a completed sweep.
type SweepResult struct {
	Spec   SweepSpec
	Points []PointResult
	// Failures lists jobs that errored or panicked, in job-index order.
	Failures []JobError
}

// Point returns the result for the named sweep point, or nil when the
// sweep has no such point. Callers that assemble downstream artifacts
// should look points up by name rather than position, so reordering a
// grid helper cannot silently swap their data.
func (s *SweepResult) Point(name string) *PointResult {
	for i := range s.Points {
		if s.Points[i].Point.Name == name {
			return &s.Points[i]
		}
	}
	return nil
}

// Jobs expands the spec into its deterministic job list: point-major,
// replication-minor, with per-job seeds derived from RootSeed and the
// job name. The expansion is what makes the sweep a value: the same
// spec always yields the same jobs with the same seeds.
func (s *SweepSpec) Jobs() []Job {
	reps := s.Replications
	if reps < 1 {
		reps = 1
	}
	src := rng.NewSource(s.RootSeed)
	jobs := make([]Job, 0, len(s.Points)*reps)
	for pi, p := range s.Points {
		for r := 0; r < reps; r++ {
			cfg := p.Config
			cfg.Seed = src.SeedFor(fmt.Sprintf("%s/rep%03d", p.Name, r))
			jobs = append(jobs, Job{
				Index:      len(jobs),
				PointIndex: pi,
				Rep:        r,
				Point:      p.Name,
				Config:     cfg,
			})
		}
	}
	return jobs
}

// Run executes the sweep over a bounded worker pool and aggregates the
// results. It returns the (possibly partial) SweepResult together with
// a non-nil error when any replication failed; points with surviving
// replications are still aggregated over those.
func Run(spec SweepSpec) (*SweepResult, error) {
	if len(spec.Points) == 0 {
		return nil, fmt.Errorf("runner: sweep has no points")
	}
	seen := make(map[string]bool, len(spec.Points))
	for _, p := range spec.Points {
		if seen[p.Name] {
			return nil, fmt.Errorf("runner: duplicate point name %q", p.Name)
		}
		seen[p.Name] = true
	}
	jobs := spec.Jobs()
	workers := spec.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	results := make([]*experiment.Result, len(jobs))
	errs := make([]error, len(jobs))
	queue := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes progress callbacks
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				results[i], errs[i] = runJob(jobs[i])
				if spec.OnProgress != nil {
					mu.Lock()
					done++
					spec.OnProgress(Progress{Done: done, Total: len(jobs), Job: jobs[i], Err: errs[i]})
					mu.Unlock()
				}
			}
		}()
	}
	for i := range jobs {
		queue <- i
	}
	close(queue)
	wg.Wait()

	reps := len(jobs) / len(spec.Points)
	sr := &SweepResult{Spec: spec, Points: make([]PointResult, len(spec.Points))}
	for pi, p := range spec.Points {
		pr := PointResult{Point: p, Reps: results[pi*reps : (pi+1)*reps]}
		pr.Metrics = aggregate(pr.Reps)
		sr.Points[pi] = pr
	}
	for i, err := range errs {
		if err != nil {
			sr.Failures = append(sr.Failures, JobError{Job: jobs[i], Err: err})
		}
	}
	if n := len(sr.Failures); n > 0 {
		return sr, fmt.Errorf("runner: %d of %d replications failed (first: %w)", n, len(jobs), sr.Failures[0].Err)
	}
	return sr, nil
}

// runExperiment is swapped out by tests to exercise panic capture.
var runExperiment = experiment.Run

// runJob executes one replication in isolation, converting a panic in
// the simulation stack into an error so one bad point cannot take down
// the rest of the sweep.
func runJob(job Job) (res *experiment.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return runExperiment(job.Config)
}

// aggregate folds the per-replication scalars of one point into
// mean/std/CI metrics by name, in the order the first replications
// report them (experiment.Result.Scalars), skipping failed (nil)
// replications.
func aggregate(reps []*experiment.Result) []NamedMetric {
	var names []string
	samples := make(map[string][]float64)
	for _, r := range reps {
		if r == nil {
			continue
		}
		for _, sc := range r.Scalars {
			if _, ok := samples[sc.Name]; !ok {
				names = append(names, sc.Name)
			}
			samples[sc.Name] = append(samples[sc.Name], sc.Value)
		}
	}
	out := make([]NamedMetric, 0, len(names))
	for _, name := range names {
		out = append(out, NamedMetric{Name: name, Metric: summarize(samples[name])})
	}
	return out
}

// summarize reads the mean and standard deviation through
// stats.MeanStd, the arithmetic stats.Summarize uses, without the sorted
// copy Summarize makes for quantiles no metric reports.
func summarize(xs []float64) Metric {
	m := Metric{N: len(xs)}
	m.Mean, m.Std = stats.MeanStd(xs)
	if m.N > 1 {
		m.CI95 = tCritical95(m.N-1) * m.Std / math.Sqrt(float64(m.N))
	}
	return m
}

// tCritical95 returns the two-sided 95% Student's t critical value for
// df degrees of freedom (normal approximation beyond the table).
func tCritical95(df int) float64 {
	table := []float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df < 1 {
		return 0
	}
	if df <= len(table) {
		return table[df-1]
	}
	return 1.960
}

// WriteTable renders the aggregated sweep deterministically: points in
// spec order, metrics in extraction order, each as mean ± CI95 with the
// sample standard deviation. The bytes produced depend only on the spec
// and root seed — the determinism regression test compares this output
// across worker counts.
func (s *SweepResult) WriteTable(w io.Writer) error {
	reps := s.Spec.Replications
	if reps < 1 {
		reps = 1
	}
	for i := range s.Points {
		pr := &s.Points[i]
		ok := 0
		for _, r := range pr.Reps {
			if r != nil {
				ok++
			}
		}
		if _, err := fmt.Fprintf(w, "%s  (%d/%d replications, %d clients, %.0f s)\n",
			pr.Point.Name, ok, reps, pr.Point.Config.Clients, pr.Point.Config.Duration.Sec()); err != nil {
			return err
		}
		for _, nm := range pr.Metrics {
			m := nm.Metric
			if _, err := fmt.Fprintf(w, "  %-18s %14.6g ± %-12.6g (std %.6g, n=%d)\n",
				nm.Name, m.Mean, m.CI95, m.Std, m.N); err != nil {
				return err
			}
		}
	}
	for _, f := range s.Failures {
		if _, err := fmt.Fprintf(w, "FAILED %s rep %d: %v\n", f.Job.Point, f.Job.Rep, f.Err); err != nil {
			return err
		}
	}
	return nil
}
