package sysstat

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"vwchar/internal/xen"
)

// Table1Row is one line of the reproduced Table 1: a representative
// sample of the 518 profiled metrics, with source and description, as in
// the paper's "sample of performance metrics used to characterize
// workload of the RUBiS benchmark system".
type Table1Row struct {
	Source      string // "sysstat (hypervisor)", "sysstat (VM)", "perf (hypervisor)"
	Name        string
	Unit        string
	Description string
}

// table1SysstatPicks selects the representative sysstat metrics shown in
// Table 1 (the full catalog has 182 entries per instance).
var table1SysstatPicks = []string{
	"%user [all]", "%system [all]", "%iowait [all]", "%steal [all]", "%idle [all]",
	"proc/s", "cswch/s", "intr/s [sum]",
	"pgpgin/s", "pgpgout/s", "fault/s",
	"tps", "bread/s", "bwrtn/s",
	"kbmemused", "%memused", "kbbuffers", "kbcached",
	"runq-sz", "ldavg-1",
	"rxkB/s [eth0]", "txkB/s [eth0]", "rxpck/s [eth0]", "txpck/s [eth0]",
	"totsck", "tcpsck",
	"MHz",
}

// table1PerfPicks selects the representative perf counters shown in
// Table 1 (the full set has 154).
var table1PerfPicks = []string{
	"cycles", "instructions", "branches", "branch-misses",
	"cache-references", "cache-misses",
	"dTLB-load-misses", "iTLB-load-misses",
	"context-switches", "page-faults",
	"xen-hypercalls", "xen-grant-table-ops", "xen-steal-time-ms",
}

// Table1 assembles the reproduced Table 1 rows. The descriptions come
// from the sysstat catalog and xen's counter table, so Table 1 stays in
// sync with what is actually profiled.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, src := range []string{"sysstat (hypervisor)", "sysstat (VM)"} {
		for _, name := range table1SysstatPicks {
			i := slices.IndexFunc(catalog, func(m Metric) bool { return m.Name == name })
			if i < 0 {
				panic(fmt.Sprintf("sysstat: Table 1 references unknown metric %q", name))
			}
			m := catalog[i]
			rows = append(rows, Table1Row{Source: src, Name: m.Name, Unit: m.Unit, Description: m.Description})
		}
	}
	perf := xen.CatalogOnly()
	for _, name := range table1PerfPicks {
		i := slices.IndexFunc(perf, func(c xen.PerfCounter) bool { return c.Name == name })
		if i < 0 {
			panic(fmt.Sprintf("sysstat: Table 1 references unknown perf counter %q", name))
		}
		rows = append(rows, Table1Row{Source: "perf (hypervisor)", Name: name, Unit: "count", Description: perf[i].Description})
	}
	return rows
}

// TotalProfiledMetrics is the paper's metric inventory: 182 sysstat
// metrics in the hypervisor, 182 in the VMs, 154 perf counters.
func TotalProfiledMetrics() int {
	return CatalogSize + CatalogSize + xen.PerfCounterCount
}

// WriteTable1 renders Table 1 as aligned text.
func WriteTable1(w io.Writer) error {
	rows := Table1()
	if _, err := fmt.Fprintf(w,
		"Table 1. A sample of the %d performance metrics used to characterize workload\n"+
			"(182 sysstat metrics in the hypervisor + 182 in VMs + 154 perf counters).\n\n",
		TotalProfiledMetrics()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-22s %-22s %-10s %s\n", "SOURCE", "METRIC", "UNIT", "DESCRIPTION"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", 100)); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-22s %-22s %-10s %s\n", r.Source, r.Name, r.Unit, r.Description); err != nil {
			return err
		}
	}
	return nil
}
