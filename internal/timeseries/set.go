package timeseries

// Set is an ordered list of uniquely named series sharing one time
// axis: a run's resource series, or its per-window request series. The
// order is the registration order, which is the CSV column order.
type Set struct {
	series []*Series
	// byName indexes series by name, so Add's duplicate check and
	// ByName cost the same for a full catalog's thousands of series as
	// for a handful.
	byName map[string]*Series
}

// NewSet lists the given series, in order, keeping the slice. It
// panics on a duplicate name, as Add does.
func NewSet(series ...*Series) *Set {
	s := &Set{series: series[:0], byName: make(map[string]*Series, len(series))}
	for _, x := range series {
		s.Add(x) // appends x into the slot it already holds
	}
	return s
}

// Add appends x. A duplicate name panics: readers look series up by
// name, so a second one would be unreachable.
func (s *Set) Add(x *Series) {
	if _, dup := s.byName[x.Name]; dup {
		panic("timeseries: series " + x.Name + " registered twice")
	}
	if s.byName == nil {
		s.byName = make(map[string]*Series)
	}
	s.byName[x.Name] = x
	s.series = append(s.series, x)
}

// All lists the series in registration order. The slice is shared;
// callers must not modify it.
func (s *Set) All() []*Series { return s.series }

// ByName returns the named series, or nil when it was not registered
// (or s is nil, as on a result without that set).
func (s *Set) ByName(name string) *Series {
	if s == nil {
		return nil
	}
	return s.byName[name]
}

// Windows reports the number of samples each series holds, read off
// the first one.
func (s *Set) Windows() int {
	if s == nil || len(s.series) == 0 {
		return 0
	}
	return s.series[0].Len()
}
