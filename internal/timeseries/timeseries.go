// Package timeseries provides the sampled series type shared by the
// collector, the characterization layer, and the figure generators.
//
// A Series is a sequence of (time, value) points with a fixed sampling
// interval, matching the paper's 2-second sysstat sampling. Values are
// float64 regardless of the underlying counter type; unit bookkeeping is
// carried in the Unit field for labeling only.
package timeseries

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"vwchar/internal/stats"
)

// Series is a regularly sampled time series.
type Series struct {
	// Name identifies the series, e.g. "webapp.vm.cpu.cycles".
	Name string
	// Unit labels the values, e.g. "cycles/2s", "MB", "KB/2s".
	Unit string
	// Interval is the sampling interval in seconds (2 for the paper).
	Interval float64
	// Start is the time of the first sample, in seconds.
	Start float64
	// Values holds one sample per interval.
	Values []float64
}

// New returns an empty series with the given identity and 2 s interval.
func New(name, unit string) *Series {
	return &Series{Name: name, Unit: unit, Interval: 2}
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// TimeAt reports the timestamp (seconds) of sample i.
func (s *Series) TimeAt(i int) float64 { return s.Start + float64(i)*s.Interval }

// Append adds one sample.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// At returns sample i.
func (s *Series) At(i int) float64 { return s.Values[i] }

// Clone returns a deep copy, optionally renamed.
func (s *Series) Clone(name string) *Series {
	c := &Series{Name: name, Unit: s.Unit, Interval: s.Interval, Start: s.Start}
	if name == "" {
		c.Name = s.Name
	}
	c.Values = append([]float64(nil), s.Values...)
	return c
}

// Slice returns the sub-series covering samples [from,to).
func (s *Series) Slice(from, to int) *Series {
	if from < 0 {
		from = 0
	}
	if to > len(s.Values) {
		to = len(s.Values)
	}
	if from > to {
		from = to
	}
	return &Series{
		Name:     s.Name,
		Unit:     s.Unit,
		Interval: s.Interval,
		Start:    s.Start + float64(from)*s.Interval,
		Values:   append([]float64(nil), s.Values[from:to]...),
	}
}

// Sum returns the sum of all samples.
func (s *Series) Sum() float64 {
	total := 0.0
	for _, v := range s.Values {
		total += v
	}
	return total
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 { return stats.Mean(s.Values) }

// Max returns the largest sample, or 0 for an empty series.
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest sample, or 0 for an empty series.
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Quantile returns the q-quantile (0<=q<=1) using linear interpolation on
// the sorted samples, or 0 for an empty series.
func (s *Series) Quantile(q float64) float64 { return stats.Quantile(s.Values, q) }

// WriteCSV writes the series as time,value rows with a header.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", s.Name + " (" + s.Unit + ")"}); err != nil {
		return err
	}
	for i, v := range s.Values {
		rec := []string{
			strconv.FormatFloat(s.TimeAt(i), 'f', 3, 64),
			strconv.FormatFloat(v, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTableCSV writes several aligned series as one CSV table with a
// shared time column. Series shorter than the longest are padded with
// empty cells.
func WriteTableCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return nil
	}
	cw := csv.NewWriter(w)
	header := []string{"time_s"}
	n := 0
	for _, s := range series {
		header = append(header, s.Name+" ("+s.Unit+")")
		if s.Len() > n {
			n = s.Len()
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		rec := make([]string, 0, len(series)+1)
		rec = append(rec, strconv.FormatFloat(series[0].TimeAt(i), 'f', 3, 64))
		for _, s := range series {
			if i < s.Len() {
				rec = append(rec, strconv.FormatFloat(s.Values[i], 'g', -1, 64))
			} else {
				rec = append(rec, "")
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a single-series CSV produced by WriteCSV.
func ReadCSV(r io.Reader) (*Series, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("timeseries: read csv: %w", err)
	}
	if len(records) < 1 {
		return nil, fmt.Errorf("timeseries: empty csv")
	}
	s := &Series{Name: records[0][1], Interval: 2}
	var times []float64
	for _, rec := range records[1:] {
		if len(rec) < 2 {
			continue
		}
		t, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("timeseries: bad time %q: %w", rec[0], err)
		}
		v, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("timeseries: bad value %q: %w", rec[1], err)
		}
		times = append(times, t)
		s.Values = append(s.Values, v)
	}
	if len(times) > 0 {
		s.Start = times[0]
	}
	if len(times) > 1 {
		s.Interval = times[1] - times[0]
	}
	return s, nil
}
