package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"vwchar/internal/experiment"
	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/runner"
)

// Probe sizes at scale 1.
const (
	replayExecsPerMix = 100000
	replayClients     = 64
	attachReps        = 200
	streamReps        = 1000
	populateReps      = 3
)

// traceResult is a traced run's per-layer report.
type traceResult struct {
	metrics      []metricValue
	problems     []string
	jobs, failed int
}

// span is one timed interval of a traced run, written to spans.json.
// Parent is the id of the span that caused it, 0 for the root.
type span struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent"`
	Name    string            `json:"name"`
	StartUS float64           `json:"start_us"`
	EndUS   float64           `json:"end_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// spanLog keeps a run's spans in memory; the pool's workers record
// into it concurrently.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (l *spanLog) start(parent int, name string, attrs map[string]string) int {
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		StartUS: float64(now.Nanoseconds()) / 1e3, Attrs: attrs})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].EndUS = float64(now.Nanoseconds()) / 1e3
}

// traceRun measures the workload layer by layer: an untraced sweep
// whose results the traced jobs must reproduce, the same jobs through
// the benchmark's own pool with a span per job, a second untraced sweep
// to time against, a CPU-profiled sweep, and probes around single
// public calls. It writes cpu.pprof, spans.json and layers.txt under
// <traceDir>/<workload>.
func traceRun(name string, spec runner.SweepSpec, o options) (*traceResult, error) {
	dir := filepath.Join(o.traceDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log := &spanLog{t0: time.Now()}
	root := log.start(0, "bench.trace", map[string]string{"workload": name, "seed": strconv.FormatUint(o.seed, 10)})
	t := &traceResult{}

	id := log.start(root, "setup", nil)
	if _, err := setUp(spec, 1); err != nil {
		return nil, err
	}
	log.end(id)

	// The first untraced sweep also warms the snapshot's view pool, so
	// the traced sweep is compared with the second one.
	id = log.start(root, "runner.Run", map[string]string{"mode": "untraced"})
	first, sr, err := timedSweep(spec)
	if err != nil {
		return nil, err
	}
	log.end(id)
	want := completedByJob(spec, sr)
	counts := simulatedCounts(sr)

	tracedS, jobMS, problems, failed := tracedSweep(spec, want, log, root)
	t.problems = append(t.problems, problems...)

	id = log.start(root, "runner.Run", map[string]string{"mode": "untraced"})
	base, _, err := timedSweep(spec)
	if err != nil {
		return nil, err
	}
	log.end(id)

	profPath := filepath.Join(dir, "cpu.pprof")
	id = log.start(root, "runner.Run", map[string]string{"mode": "profiled"})
	profiled, err := profiledSweep(spec, profPath)
	if err != nil {
		return nil, err
	}
	log.end(id)
	samples, err := profileTraces(profPath)
	if err != nil {
		return nil, err
	}

	probes, err := runProbes(spec, o.scale, log, root)
	if err != nil {
		return nil, err
	}
	log.end(root)

	// The untraced and profiled sweeps are checked like a timed run's.
	check := measurement{sweeps: []sweepSample{first, base, profiled}}
	g, err := loadGoldens(goldenJSON)
	if err != nil {
		return nil, err
	}
	t.problems = append(t.problems, check.check(name, o.seed, o.scale, g)...)
	t.jobs = first.jobs + len(jobMS) + base.jobs + profiled.jobs
	t.failed = first.failed + failed + base.failed + profiled.failed

	workers := min(spec.Workers, len(jobMS))
	busy, maxMS := 0.0, 0.0
	for _, ms := range jobMS {
		busy += ms
		maxMS = max(maxMS, ms)
	}
	t.metrics = append([]metricValue{
		{"experiment.run_ms_p50", median(append([]float64(nil), jobMS...)), "ms"},
		{"experiment.run_ms_max", maxMS, "ms"},
		{"runner.parallel_eff", busy / 1e3 / (float64(workers) * tracedS), "ratio"},
	}, probes...)
	t.metrics = append(t.metrics, counts...)
	t.metrics = append(t.metrics, metricValue{"trace_overhead", tracedS/base.wallS - 1, "ratio"})
	t.metrics = append(t.metrics, attribute(samples)...)

	if err := writeTraceFiles(dir, log.spans, t.metrics); err != nil {
		return nil, err
	}
	return t, nil
}

// completedByJob lists each job's completed-request count from a sweep
// result, in spec.Jobs() order; a failed job reads 0.
func completedByJob(spec runner.SweepSpec, sr *runner.SweepResult) []uint64 {
	jobs := spec.Jobs()
	out := make([]uint64, len(jobs))
	for i, j := range jobs {
		if r := sr.Points[j.PointIndex].Reps[j.Rep]; r != nil {
			out[i] = r.Completed
		}
	}
	return out
}

// tracedSweep runs spec.Jobs() through the benchmark's own pool of
// spec.Workers goroutines, one span per experiment.Run, and checks
// each job's completed count against the untraced sweep. It returns
// the pool's wall time, each job's time in ms, problems, and the
// number of jobs that returned an error.
func tracedSweep(spec runner.SweepSpec, want []uint64, log *spanLog, parent int) (wallS float64, jobMS []float64, problems []string, failed int) {
	jobs := spec.Jobs()
	jobMS = make([]float64, len(jobs))
	// Results are held until the pool finishes, as runner.Run holds
	// them, so both sweeps carry the same live heap.
	results := make([]*experiment.Result, len(jobs))
	errs := make([]error, len(jobs))
	runtime.GC()
	id := log.start(parent, "pool", map[string]string{"mode": "traced", "workers": strconv.Itoa(spec.Workers)})
	t0 := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(spec.Workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				sid := log.start(id, "experiment.Run", map[string]string{
					"point": j.Point, "rep": strconv.Itoa(j.Rep), "worker": strconv.Itoa(w)})
				start := time.Now()
				results[i], errs[i] = experiment.Run(j.Config)
				jobMS[i] = float64(time.Since(start).Nanoseconds()) / 1e6
				log.end(sid)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	wallS = time.Since(t0).Seconds()
	log.end(id)
	for i, j := range jobs {
		switch {
		case errs[i] != nil:
			failed++
			problems = append(problems, fmt.Sprintf("traced %s rep %d: %v", j.Point, j.Rep, errs[i]))
		case results[i].Completed != want[i]:
			problems = append(problems, fmt.Sprintf("traced %s rep %d completed %d requests, untraced %d", j.Point, j.Rep, results[i].Completed, want[i]))
		}
	}
	return wallS, jobMS, problems, failed
}

// profiledSweep runs one untraced sweep under the CPU profiler.
func profiledSweep(spec runner.SweepSpec, path string) (sweepSample, error) {
	f, err := os.Create(path)
	if err != nil {
		return sweepSample{}, err
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.StartCPUProfile(f); err != nil {
		return sweepSample{}, err
	}
	s, _, err := timedSweep(spec)
	pprof.StopCPUProfile()
	if err != nil {
		return sweepSample{}, err
	}
	return s, f.Close()
}

// simulatedCounts sums the simulated work a sweep reports.
func simulatedCounts(sr *runner.SweepResult) []metricValue {
	var requests, retries, served, concluded, started, abandoned uint64
	hitSum, caches := 0.0, 0
	for i := range sr.Points {
		for _, r := range sr.Points[i].Reps {
			if r == nil {
				continue
			}
			requests += r.Completed
			if r.Guard != nil {
				retries += r.Guard.Retries
			}
			if rq := r.Requests; rq != nil {
				served += rq.Served
				concluded += rq.Issued - rq.InFlight
			}
			if r.Cache != nil {
				hitSum += r.Cache.HitRatio()
				caches++
			}
			if r.Sessions != nil {
				started += r.Sessions.Started
				abandoned += r.Sessions.Abandoned
			}
		}
	}
	availability := 1.0
	if concluded > 0 {
		availability = float64(served) / float64(concluded)
	}
	hitRatio := 0.0
	if caches > 0 {
		hitRatio = hitSum / float64(caches)
	}
	return []metricValue{
		{"sim.requests", float64(requests), "count"},
		{"tiers.retries", float64(retries), "count"},
		{"tiers.availability", availability, "ratio"},
		{"cachetier.hit_ratio", hitRatio, "ratio"},
		{"load.sessions_started", float64(started), "count"},
		{"load.sessions_abandoned", float64(abandoned), "count"},
	}
}

// runProbes times single public calls on the workload's golden dataset:
// population, attach, the interaction replay and stream creation.
func runProbes(spec runner.SweepSpec, scale float64, log *spanLog, parent int) ([]metricValue, error) {
	cfg, seed, _ := goldenDataset(spec)
	id := log.start(parent, "rubis.NewSnapshot", map[string]string{"reps": strconv.Itoa(populateReps)})
	populate := make([]float64, populateReps)
	for i := range populate {
		runtime.GC()
		t0 := time.Now()
		if _, err := rubis.NewSnapshot(cfg, seed); err != nil {
			return nil, err
		}
		populate[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	log.end(id)

	snap, err := rubis.SharedSnapshot(cfg, seed)
	if err != nil {
		return nil, err
	}
	attach := make([]float64, scaled(attachReps, scale, 20))
	id = log.start(parent, "rubis.Attach+Release", map[string]string{"reps": strconv.Itoa(len(attach))})
	snap.Attach().Release() // the first attach builds the view the rest rearm
	for i := range attach {
		t0 := time.Now()
		snap.Attach().Release()
		attach[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	log.end(id)

	var mixes []experiment.MixKind
	for _, p := range spec.Points {
		if !slices.Contains(mixes, p.Config.Mix) {
			mixes = append(mixes, p.Config.Mix)
		}
	}
	execs := scaled(replayExecsPerMix, scale, 1000)
	rp, err := replay(snap, spec.RootSeed, mixes, execs, log, parent)
	if err != nil {
		return nil, err
	}

	stream := make([]float64, scaled(streamReps, scale, 20))
	id = log.start(parent, "rng.Stream", map[string]string{"reps": strconv.Itoa(len(stream))})
	for i := range stream {
		t0 := time.Now()
		rng.NewSource(uint64(i)).Stream("client-0-pick")
		stream[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	log.end(id)

	out := []metricValue{
		{"rubis.populate_ms", median(populate), "ms"},
		{"rubis.attach_us", median(attach), "us"},
	}
	out = append(out, rp...)
	return append(out, metricValue{"rng.stream_new_us", median(stream), "us"}), nil
}

// replayClient is one emulated closed-loop session of the replay probe.
type replayClient struct {
	sess  rubis.Session
	state rubis.Interaction
	pick  *rng.Stream
	res   rubis.Result
}

// replay attaches a view of the golden per mix and runs execs
// App.ExecuteInto calls against it, walking the mix's transitions over
// replayClients sessions initialised the way the closed-loop driver
// initialises its clients. It reports per-call latency, allocation and
// the engine meter's per-call work.
func replay(snap *rubis.Snapshot, seed uint64, mixes []experiment.MixKind, execs int, log *spanLog, parent int) ([]metricValue, error) {
	costs := rubis.DefaultCostParams()
	lat := make([]float64, 0, execs*len(mixes))
	var allocs, bytes, rows, hits, misses, written uint64
	var wal float64
	for _, mix := range mixes {
		id := log.start(parent, "rubis.ExecuteInto", map[string]string{"mix": string(mix), "calls": strconv.Itoa(execs)})
		app := snap.Attach()
		model := mix.Model()
		src := rng.NewSource(seed)
		clients := make([]replayClient, replayClients)
		for i := range clients {
			c := &clients[i]
			c.state = model.StartState()
			c.pick = src.Stream(fmt.Sprintf("replay-%s-client-%d", mix, i))
			c.sess.UserID = int64(i) % app.TotalUsers()
			c.sess.ItemID = int64(i*7) % app.TotalItems()
			c.sess.CategoryID = int64(i % app.Config.Categories)
			c.sess.RegionID = int64(i % app.Config.Regions)
			c.sess.ToUserID = int64(i*13) % app.TotalUsers()
		}
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		m0 := app.Engine.Meter()
		for i := 0; i < execs; i++ {
			c := &clients[i%len(clients)]
			c.state = model.NextInteraction(c.state, c.pick)
			t0 := time.Now()
			err := app.ExecuteInto(&c.res, c.state, &c.sess, c.pick, costs)
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				app.Release()
				return nil, fmt.Errorf("replay %s: %s: %w", mix, c.state, err)
			}
		}
		m1 := app.Engine.Meter()
		runtime.ReadMemStats(&ms1)
		app.Release()
		log.end(id)
		allocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
		rows += m1.RowsRead - m0.RowsRead
		hits += m1.PageHits - m0.PageHits
		misses += m1.PageMisses - m0.PageMisses
		written += m1.PagesWritten - m0.PagesWritten
		wal += m1.WALBytes - m0.WALBytes
	}
	n := float64(len(lat))
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	p50, p99 := quantiles(lat)
	return []metricValue{
		{"rubis.exec_us_p50", p50, "us"},
		{"rubis.exec_us_p99", p99, "us"},
		{"rubis.exec_allocs", float64(allocs) / n, "count"},
		{"rubis.exec_bytes", float64(bytes) / n, "B"},
		{"rubisdb.rows_read_per_exec", float64(rows) / n, "count"},
		{"rubisdb.page_hit_ratio", hitRatio, "ratio"},
		{"rubisdb.page_misses_per_exec", float64(misses) / n, "count"},
		{"rubisdb.pages_written_per_exec", float64(written) / n, "count"},
		{"rubisdb.wal_bytes_per_exec", wal / n, "B"},
	}, nil
}

// quantiles returns the median and 99th percentile of xs, sorting it.
func quantiles(xs []float64) (p50, p99 float64) {
	p50 = median(xs) // sorts
	return p50, xs[int(0.99*float64(len(xs)-1))]
}

// writeTraceFiles writes spans.json and layers.txt into dir.
func writeTraceFiles(dir string, spans []span, metrics []metricValue) error {
	data, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	var lines []byte
	for _, m := range metrics {
		lines = fmt.Appendf(lines, "%s %v %s\n", m.name, m.value, m.unit)
	}
	return os.WriteFile(filepath.Join(dir, "layers.txt"), lines, 0o644)
}
