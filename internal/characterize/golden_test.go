package characterize

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
)

// goldenBrowsingBits pins the float64 bits of the browsing-mix ratios
// over the package's cached runs, one row per analysis in cpu, ram,
// disk, network order. They read every tier's resource series and the
// collector's sample count, so any change to how a run's series are
// stored or looked up shows here value by value.
//
// If a PR intentionally changes model behaviour, regenerate with
//
//	go test ./internal/characterize -run Golden -v
//
// and update the constants alongside an explanation of what moved.
var goldenBrowsingBits = []struct {
	name string
	bits [4]uint64
}{
	{"TierRatios", [4]uint64{0x4018c0b4ee37e8b7, 0x4000e23b796a7571, 0x40891d881f5ad8a5, 0x40448d9ccbf46da2}},
	{"VMToDom0Ratios", [4]uint64{0x4030b166ebcc7c90, 0x3fda2621fde8bf5c, 0x3fd39db56b3b8fa8, 0x3fefa9fe1e578ae3}},
	{"EnvAggregateRatios", [4]uint64{0x4008745ef50d1bad, 0x3ff3e326cdbceb79, 0x3fdaf39d2c42de78, 0x3fee5af5ff0fec9f}},
	{"PhysicalDelta", [4]uint64{0x3fe715cdbda277be, 0x3ff857b51a012312, 0xbfd0c5da733db276, 0xbfa092059cb90ee0}},
}

// goldenReportSHA256 pins the bytes BuildReport(...).Write renders over
// the same four runs, paper reference values included.
const goldenReportSHA256 = "3cec3b62e310782da1dc34c6054c21da9a929d9d8c66e673590a2bfcf507ecdc"

func TestBrowsingRatiosMatchGolden(t *testing.T) {
	vb, _, pb, _ := results(t)
	got := []Ratios{
		TierRatios(vb),
		VMToDom0Ratios(vb),
		EnvAggregateRatios(vb, pb),
		PhysicalDelta(vb, pb),
	}
	for i, want := range goldenBrowsingBits {
		r := got[i]
		bits := [4]uint64{
			math.Float64bits(r.CPU), math.Float64bits(r.RAM),
			math.Float64bits(r.Disk), math.Float64bits(r.Network),
		}
		t.Logf("%s: %#x (%v)", want.name, bits, r)
		if bits != want.bits {
			t.Errorf("%s bits = %#x, want %#x", want.name, bits, want.bits)
		}
	}
}

func TestReportMatchesGoldenHash(t *testing.T) {
	vb, vd, pb, pd := results(t)
	var buf bytes.Buffer
	if err := BuildReport(vb, vd, pb, pd).Write(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	got := hex.EncodeToString(sum[:])
	t.Logf("report sha256 %s:\n%s", got, buf.String())
	if got != goldenReportSHA256 {
		t.Fatalf("report sha256 = %s, want %s", got, goldenReportSHA256)
	}
}
