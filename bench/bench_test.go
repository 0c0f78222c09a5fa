package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// tinyScale shrinks every workload to a few simulated seconds of a
// handful of clients, so the whole file runs in seconds under -race.
const tinyScale = 0.001

type benchmarkMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) (workloads []string, endToEnd, perLayer []benchmarkMetric) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []benchmarkMetric       `json:"end_to_end"`
		PerLayer  []benchmarkMetric       `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, b.EndToEnd, b.PerLayer
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	names, _, _ := readBenchmarkJSON(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %v, the benchmark runs %d workloads", names, len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, names[i], w.name)
		}
	}
}

// TestEveryMetricPrintedOnce runs every workload timed and traced at a
// tiny scale and checks that each metric BENCHMARK.json names for that
// mode is printed on exactly one line with its unit, and that the JSON
// line carries exactly those metrics.
func TestEveryMetricPrintedOnce(t *testing.T) {
	_, endToEnd, perLayer := readBenchmarkJSON(t)
	for _, w := range workloads {
		for trace, want := range [][]benchmarkMetric{endToEnd, perLayer} {
			var out bytes.Buffer
			o := options{workload: w.name, seed: 7, seconds: 0.001, reps: 2, trace: trace,
				traceDir: t.TempDir(), scale: tinyScale}
			if err := run(o, &out); err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w.name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Metrics   map[string]struct{ Unit string }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not the JSON result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: correct=%v attempted=%d, %d metrics, want %d",
					w.name, trace, res.Correct, res.Attempted, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got := res.Metrics[m.Name].Unit; got != m.Unit {
					t.Errorf("%s trace=%d: JSON %s unit %q, want %q", w.name, trace, m.Name, got, m.Unit)
				}
				printed := 0
				for _, l := range lines[:len(lines)-1] {
					f := strings.Fields(l)
					if len(f) > 0 && f[0] == m.Name {
						printed++
						if f[len(f)-1] != m.Unit {
							t.Errorf("%s trace=%d: %q does not end in unit %q", w.name, trace, l, m.Unit)
						}
					}
				}
				if printed != 1 {
					t.Errorf("%s trace=%d: %s printed %d times", w.name, trace, m.Name, printed)
				}
			}
		}
	}
}

func TestSweepsHashIdentically(t *testing.T) {
	spec, err := openFlash(11, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 2
	m, err := measure(spec, 0.001, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.sweeps) != 2 || m.sweeps[0].sha256 != m.sweeps[1].sha256 {
		t.Fatalf("two sweeps of one spec hash differently: %+v", m.sweeps)
	}
	if p := m.check("open-flash", 11, tinyScale, goldens{}); len(p) > 0 {
		t.Fatalf("identical sweeps reported problems: %v", p)
	}
}

func TestGoldenCheck(t *testing.T) {
	g, err := loadGoldens(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if g.Workloads[w.name].SHA256 == "" {
			t.Errorf("golden.json pins no output for %s", w.name)
		}
	}
	pinned := g.Workloads["paper-grid"]
	sample := func(sha, ratio string) *measurement {
		r, err := strconv.ParseFloat(ratio, 64)
		if err != nil {
			t.Fatal(err)
		}
		s := sweepSample{sha256: sha, ratioErr: r, hasRatio: true, jobs: 10}
		return &measurement{sweeps: []sweepSample{s, s}}
	}
	if p := sample(pinned.SHA256, pinned.PaperRatioErr).check("paper-grid", g.Seed, 1, g); len(p) > 0 {
		t.Fatalf("pinned output rejected: %v", p)
	}
	tampered := strings.Repeat("0", 64)
	if p := sample(tampered, pinned.PaperRatioErr).check("paper-grid", g.Seed, 1, g); len(p) != 1 {
		t.Fatalf("tampered hash: got problems %v, want one", p)
	}
	if p := sample(pinned.SHA256, "0.5").check("paper-grid", g.Seed, 1, g); len(p) != 1 {
		t.Fatalf("tampered paper_ratio_err: got problems %v, want one", p)
	}
	// Off the golden seed only run-to-run identity is checked.
	if p := sample(tampered, "0.5").check("paper-grid", g.Seed+1, 1, g); len(p) > 0 {
		t.Fatalf("unpinned seed rejected: %v", p)
	}
}

const cannedTraces = `File: bench
Type: cpu
Duration: 4.50s, Total samples = 100ms ( 2.22%)
-----------+-------------------------------------------------------
      30ms   vwchar/internal/rubisdb.DecodeRow
             vwchar/internal/rubisdb.(*Table).LookupBy
             vwchar/internal/rubis.(*App).ExecuteInto
             vwchar/internal/tiers.(*Driver).issue
             vwchar/internal/sim.(*Kernel).Run
-----------+-------------------------------------------------------
     bytes:  64
      10ms   runtime.memclrNoHeapPointers
             runtime.mallocgc
             runtime.makeslice
             vwchar/internal/rubisdb.DecodeRow (inline)
             vwchar/internal/rubis.(*App).ExecuteInto
-----------+-------------------------------------------------------
      20ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   math/rand.seedrand (inline)
             math/rand.(*rngSource).Seed
             vwchar/internal/rng.(*Source).Stream
-----------+-------------------------------------------------------
      30ms   runtime.futex
             runtime.notesleep
             main.main
-----------+-------------------------------------------------------
`

func TestParseTracesAndAttribute(t *testing.T) {
	samples, err := parseTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("parsed %d samples, want 5: %+v", len(samples), samples)
	}
	if f := samples[1].frames; len(f) != 5 || f[3] != "vwchar/internal/rubisdb.DecodeRow" {
		t.Fatalf("inline marker or label line mishandled: %q", f)
	}
	got := map[string]float64{}
	for _, m := range attribute(samples) {
		got[m.name] = m.value
	}
	want := map[string]float64{
		"self.rubisdb": 0.3, "self.runtime_alloc": 0.1, "self.runtime_gc": 0.2,
		"self.rng": 0.1, "self.other": 0.3, "self.rubis": 0, "self.sim": 0,
		"cum.rubisdb": 0.4, "cum.rubis": 0.4, "cum.sim": 0.3, "cum.rng": 0.1,
		"cum.runtime_alloc": 0.1, "cum.runtime_gc": 0.2, "cum.other": 0,
		"cum.rubis.ExecuteInto": 0.4, "cum.rubisdb.DecodeRow": 0.4,
		"cum.rng.seed": 0.1, "cum.rubis.NewApp": 0,
	}
	for name, w := range want {
		if g := got[name]; g < w-1e-9 || g > w+1e-9 {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
}
