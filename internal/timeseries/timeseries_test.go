package timeseries

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mkSeries(vals ...float64) *Series {
	s := New("test", "KB")
	s.Values = vals
	return s
}

func TestBasicsOnEmpty(t *testing.T) {
	s := New("e", "x")
	if s.Len() != 0 || s.Sum() != 0 || s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Fatal("empty series aggregates should be zero")
	}
	if s.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestAppendAndTimeAt(t *testing.T) {
	s := New("a", "x")
	s.Append(1)
	s.Append(2)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.TimeAt(0) != 0 || s.TimeAt(1) != 2 {
		t.Fatalf("TimeAt wrong: %v %v", s.TimeAt(0), s.TimeAt(1))
	}
	s.Start = 10
	if s.TimeAt(1) != 12 {
		t.Fatalf("TimeAt with Start: %v", s.TimeAt(1))
	}
}

func TestAggregates(t *testing.T) {
	s := mkSeries(1, 2, 3, 4)
	if s.Sum() != 10 || s.Mean() != 2.5 || s.Max() != 4 || s.Min() != 1 {
		t.Fatalf("aggregates: sum=%v mean=%v max=%v min=%v", s.Sum(), s.Mean(), s.Max(), s.Min())
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := mkSeries(1, 2)
	c := s.Clone("copy")
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
	if c.Name != "copy" {
		t.Fatalf("Clone name = %q", c.Name)
	}
	if s.Clone("").Name != "test" {
		t.Fatal("empty name should keep original")
	}
}

func TestSlice(t *testing.T) {
	s := mkSeries(0, 1, 2, 3, 4, 5)
	sub := s.Slice(2, 4)
	if sub.Len() != 2 || sub.At(0) != 2 || sub.At(1) != 3 {
		t.Fatalf("Slice values: %v", sub.Values)
	}
	if sub.Start != 4 {
		t.Fatalf("Slice start = %v, want 4", sub.Start)
	}
	if s.Slice(-5, 100).Len() != 6 {
		t.Fatal("Slice should clamp bounds")
	}
	if s.Slice(4, 2).Len() != 0 {
		t.Fatal("inverted Slice should be empty")
	}
}

func TestQuantile(t *testing.T) {
	s := mkSeries(4, 1, 3, 2)
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := s.Quantile(1); q != 4 {
		t.Fatalf("q1 = %v", q)
	}
	if q := s.Quantile(0.5); q != 2.5 {
		t.Fatalf("median = %v", q)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := mkSeries(1.5, 2.25, 3)
	s.Start = 4
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("round trip len = %d", got.Len())
	}
	for i := range s.Values {
		if got.Values[i] != s.Values[i] {
			t.Fatalf("value %d: %v != %v", i, got.Values[i], s.Values[i])
		}
	}
	if got.Start != 4 || got.Interval != 2 {
		t.Fatalf("round trip start=%v interval=%v", got.Start, got.Interval)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("time_s,v\nxx,1\n")); err == nil {
		t.Fatal("bad time should error")
	}
	if _, err := ReadCSV(strings.NewReader("time_s,v\n1,yy\n")); err == nil {
		t.Fatal("bad value should error")
	}
}

func TestWriteTableCSV(t *testing.T) {
	a := mkSeries(1, 2, 3)
	a.Name = "a"
	b := mkSeries(10, 20)
	b.Name = "b"
	var buf bytes.Buffer
	if err := WriteTableCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("table rows = %d, want 4:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "a (KB)") || !strings.Contains(lines[0], "b (KB)") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasSuffix(lines[3], ",") {
		t.Fatalf("short series should pad: %q", lines[3])
	}
	if err := WriteTableCSV(&buf); err != nil {
		t.Fatal("empty table should be a no-op")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := mkSeries(clean...)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := s.Quantile(q)
			if v < prev || v < s.Min() || v > s.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSetOrderAndNames pins the Set contract readers rely on: series in
// insertion order, lookup by name, a nil set reading as empty, and a
// duplicate name panicking whether it arrives through NewSet or Add.
func TestSetOrderAndNames(t *testing.T) {
	a, b := New("a", "KB"), New("b", "MB")
	s := NewSet(a, b)
	if all := s.All(); len(all) != 2 || all[0] != a || all[1] != b {
		t.Fatalf("All = %v, want [a b]", all)
	}
	if s.ByName("b") != b || s.ByName("c") != nil {
		t.Fatal("ByName lookup broken")
	}
	a.Append(1)
	b.Append(2)
	if s.Windows() != 1 {
		t.Fatalf("Windows = %d, want 1", s.Windows())
	}
	var none *Set
	if none.ByName("a") != nil || none.Windows() != 0 {
		t.Fatal("a nil set should read as empty")
	}
	for name, f := range map[string]func(){
		"NewSet": func() { NewSet(New("x", ""), New("y", ""), New("x", "")) },
		"Add":    func() { s.Add(New("a", "")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a duplicate name", name)
				}
			}()
			f()
		}()
	}
	if len(s.All()) != 2 {
		t.Fatalf("a rejected Add changed the set: %d series", len(s.All()))
	}
}
