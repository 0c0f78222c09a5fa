package experiment

import (
	"runtime"
	"testing"
	"weak"

	"vwchar/internal/rubis"
)

// requireReleased fails t when res keeps its run's simulation
// reachable. Run hands its dataset views back to their snapshot's pool
// on exit, so the next Attach on pair 0's snapshot pops the view the
// run just used. Once that one reference is dropped, the view can stay
// alive only through something the run left behind: the kernel, a
// driver, a recorder's probe closures or a collector target all reach
// it, so a collected view means res holds none of them.
func requireReleased(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	snap, err := rubis.SharedSnapshot(cfg.Dataset, cfg.DatasetSeed)
	if err != nil {
		t.Fatal(err)
	}
	view := weak.Make(snap.Attach())
	runtime.GC()
	runtime.GC()
	if view.Value() != nil {
		t.Fatal("the result keeps its run's dataset view, and so the whole simulation, reachable")
	}
	runtime.KeepAlive(res)
}

// TestResultDoesNotPinRun pins that a Result is plain data: a sweep
// holding every finished run's Result must not hold every finished
// simulation with it. Each env gets a dataset seed of its own, so its
// snapshot's pool holds only the view this run released.
func TestResultDoesNotPinRun(t *testing.T) {
	for i, env := range []Env{Virtualized, Physical} {
		t.Run(string(env), func(t *testing.T) {
			cfg := tinyAssemblyConfig(env)
			cfg.DatasetSeed = 2801 + uint64(i)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireReleased(t, cfg, res)
		})
	}
}
