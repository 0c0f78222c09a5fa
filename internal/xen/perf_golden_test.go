package xen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"vwchar/internal/sim"
)

// perfGoldenSHA256 pins every hypervisor counter's name, description and
// value bits after a fixed mixed workload, plus the zero-valued catalog.
// A change to a formula's operand order, a name or a description moves it.
const perfGoldenSHA256 = "1c7678563f91254201463604512fd72fd6a0f7a474e2cc16088ef9c63b2696d6"

func TestPerfCountersMatchGolden(t *testing.T) {
	k := sim.NewKernel()
	hv := newTestHV(k)
	g1 := hv.CreateGuest("web", 2, 2<<30, 256)
	g2 := hv.CreateGuest("db", 2, 2<<30, 128)
	g1.CPU.Submit(3e9, nil, nil)
	g2.CPU.Submit(2e9, nil, nil)
	hv.GuestDiskIO(g2, 8192, false, nil, nil)
	hv.GuestDiskIO(g2, 65536, true, nil, nil)
	hv.GuestNetExternal(g1, 20000, true, nil, nil)
	hv.GuestNetInterVM(g1, g2, 5000, nil, nil)
	hv.GuestFsync(g2, 3)
	k.Run(20 * sim.Second)

	h := sha256.New()
	var bits [8]byte
	for _, c := range hv.PerfCounters() {
		fmt.Fprintf(h, "%s|%s|", c.Name, c.Description)
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(c.Value))
		h.Write(bits[:])
	}
	for _, c := range CatalogOnly() {
		fmt.Fprintf(h, "%s|%s|%v;", c.Name, c.Description, c.Value)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != perfGoldenSHA256 {
		t.Fatalf("perf counter hash = %s, want %s", got, perfGoldenSHA256)
	}
}
