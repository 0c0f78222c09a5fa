package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// layers are the simulator's packages plus the Go runtime split into
// garbage collection and allocation. "other" takes samples no layer
// owns: the scheduler, the benchmark itself, and internal packages
// outside this list.
var layers = []string{
	"runner", "experiment", "sim", "hw", "xen", "tiers", "rubis", "rubisdb",
	"rng", "load", "telemetry", "sysstat", "cachetier", "faults",
	"runtime_gc", "runtime_alloc", "other",
}

// entryPoints are single functions whose cumulative share is reported
// on its own, keyed by metric name.
var entryPoints = []struct{ metric, fn string }{
	{"cum.rubis.ExecuteInto", "vwchar/internal/rubis.(*App).ExecuteInto"},
	{"cum.rubisdb.DecodeRow", "vwchar/internal/rubisdb.DecodeRow"},
	{"cum.rubis.NewApp", "vwchar/internal/rubis.NewApp"},
	{"cum.rubisdb.Seal", "vwchar/internal/rubisdb.(*Engine).Seal"},
	{"cum.rng.seed", "math/rand.(*rngSource).Seed"},
}

// Runtime functions that do garbage-collection work (marking, sweeping,
// scavenging, write barriers) or allocation work. Matching is by
// prefix; GC is checked first, so sweeping done on behalf of an
// allocation counts as GC.
var (
	gcPrefixes = []string{
		"runtime.gc", "runtime.markroot", "runtime.scan", "runtime.greyobject",
		"runtime.shade", "runtime.findObject", "runtime.wbBuf", "runtime.bgsweep",
		"runtime.sweepone", "runtime.bgscavenge", "runtime.(*mspan).sweep",
		"runtime.(*sweepLocked)", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
		"runtime.(*mheap).reclaim", "runtime.(*scavengerState)",
	}
	allocPrefixes = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.nextFreeFast", "runtime.heapSetType",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)",
	}
)

// stackSample is one profile sample: its weight and its frames, leaf
// first.
type stackSample struct {
	weight float64
	frames []string
}

// profileTraces runs `go tool pprof -traces` on a CPU profile.
func profileTraces(path string) ([]stackSample, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(strings.NewReader(string(out)))
}

// parseTraces reads the text of `go tool pprof -traces`: a header, then
// one block per sample between separator lines. A block's stack lines
// put the sample's value in the first ten columns of its first line
// and a function name from column 14; label lines (a key and a colon
// in the first columns) are skipped.
func parseTraces(r io.Reader) ([]stackSample, error) {
	const separator = "-----------+"
	var samples []stackSample
	var cur *stackSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, separator) {
			samples = append(samples, stackSample{})
			cur = &samples[len(samples)-1]
			continue
		}
		if cur == nil || len(line) < 14 || line[10:13] != "   " {
			continue
		}
		if v := strings.TrimSpace(line[:10]); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", v, err)
			}
			cur.weight = d.Seconds()
		}
		cur.frames = append(cur.frames, strings.TrimSuffix(line[13:], " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The closing separator opens an empty block; drop blocks without
	// a stack.
	kept := samples[:0]
	for _, s := range samples {
		if len(s.frames) > 0 {
			kept = append(kept, s)
		}
	}
	return kept, nil
}

// layerOf maps a function to its layer, or "" for a function that does
// work on its caller's behalf (runtime helpers outside GC and
// allocation, the standard library, the benchmark's own code).
func layerOf(fn string) string {
	if pkg, ok := strings.CutPrefix(fn, "vwchar/internal/"); ok {
		pkg, _, _ = strings.Cut(pkg, ".")
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "math/rand.") {
		return "rng"
	}
	if strings.HasPrefix(fn, "runtime.") {
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime_gc"
			}
		}
		for _, p := range allocPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime_alloc"
			}
		}
	}
	return ""
}

// attribute turns samples into per-layer shares of the total weight:
// self.<layer> charges each sample to the layer of the frame nearest
// its leaf that has one (or "other"), cum.<layer> counts a sample once
// for every layer on its stack, and the entry-point metrics count the
// samples that pass through that function.
func attribute(samples []stackSample) []metricValue {
	self := map[string]float64{}
	cum := map[string]float64{}
	entry := map[string]float64{}
	total := 0.0
	for _, s := range samples {
		total += s.weight
		selfLayer := ""
		seen := map[string]bool{}
		for _, fn := range s.frames {
			l := layerOf(fn)
			if l == "" {
				continue
			}
			if selfLayer == "" {
				selfLayer = l
			}
			if !seen[l] {
				seen[l] = true
				cum[l] += s.weight
			}
		}
		if selfLayer == "" {
			selfLayer = "other"
		}
		self[selfLayer] += s.weight
		for _, e := range entryPoints {
			for _, fn := range s.frames {
				if fn == e.fn {
					entry[e.metric] += s.weight
					break
				}
			}
		}
	}
	share := func(w float64) float64 {
		if total == 0 {
			return 0
		}
		return w / total
	}
	var out []metricValue
	for _, l := range layers {
		out = append(out, metricValue{"self." + l, share(self[l]), "share"})
	}
	for _, l := range layers {
		out = append(out, metricValue{"cum." + l, share(cum[l]), "share"})
	}
	for _, e := range entryPoints {
		out = append(out, metricValue{e.metric, share(entry[e.metric]), "share"})
	}
	return out
}
