package tiers

import (
	"fmt"
	"testing"

	"vwchar/internal/rng"
	"vwchar/internal/rubis"
)

func TestClientSeedsMatchStreamNames(t *testing.T) {
	src := rng.NewSource(42)
	for i := 0; i <= 5000; i++ {
		think, pick := clientSeeds(src, i)
		if want := src.SeedFor(fmt.Sprintf("client-%d-think", i)); think != want {
			t.Fatalf("client %d think seed %d, want %d", i, think, want)
		}
		if want := src.SeedFor(fmt.Sprintf("client-%d-pick", i)); pick != want {
			t.Fatalf("client %d pick seed %d, want %d", i, pick, want)
		}
	}
}

func TestDriverReleaseRecyclesStreams(t *testing.T) {
	const n = 300
	rig := newVMRig(t, n)
	d := rig.driver
	released := make(map[*rng.Stream]bool, 2*n)
	for _, c := range d.clients {
		released[c.think] = true
		released[c.pick] = true
	}
	d.Release()
	for _, c := range d.clients {
		if c.think != nil || c.pick != nil {
			t.Fatalf("client %d still holds its streams after Release", c.id)
		}
	}

	src := rng.NewSource(21)
	newDriver := func(n int) *Driver {
		return NewDriver(rig.k, rig.app, rubis.BrowsingMix(), d.web, rubis.DefaultCostParams(), n, src)
	}
	again := newDriver(n)
	for _, c := range again.clients {
		if !released[c.think] || !released[c.pick] {
			t.Fatalf("client %d got a new stream while released ones were free", c.id)
		}
	}
	again.Release()

	// With the streams recycled, a client costs only its own struct:
	// any stream allocation would add two more per client.
	base := testing.AllocsPerRun(5, func() { newDriver(0).Release() })
	full := testing.AllocsPerRun(5, func() { newDriver(n).Release() })
	if extra := full - base; extra > n+1 {
		t.Fatalf("NewDriver(%d) after Release: %v allocs beyond an empty driver, want <= %d (clients + slice)", n, extra, n+1)
	}
}

func TestReleasedDriverPanicsOnDraw(t *testing.T) {
	rig := newVMRig(t, 5)
	rig.driver.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("starting a released driver did not panic")
		}
	}()
	rig.driver.Start()
}
