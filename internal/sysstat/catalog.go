// Package sysstat reproduces the paper's monitoring plane: a sysstat-like
// collector sampling 182 OS metrics every 2 seconds from each monitored
// instance (the hypervisor/dom0 and each VM, or a physical host), plus
// access to the 154 hypervisor perf counters — 518 profiled metrics in
// total, as in the paper's Section 3.
package sysstat

import (
	"fmt"

	"vwchar/internal/sim"
)

// Snapshot is one instant's view of an OS instance. Cumulative fields
// are differenced between samples to produce rates.
type Snapshot struct {
	At sim.Time

	// CPU
	CPUCycles float64  // cumulative executed cycles (VM: virtual scale)
	CPUBusy   sim.Time // cumulative busy time
	StealTime sim.Time // cumulative runnable-not-running (VMs)
	Cores     int
	FreqHz    float64

	// Memory (bytes)
	MemTotal, MemUsed, MemBuffers, MemCached float64

	// Disk (cumulative)
	DiskReadBytes, DiskWriteBytes float64
	DiskReadOps, DiskWriteOps     uint64
	DiskBusy                      sim.Time

	// Network (cumulative)
	NetRxBytes, NetTxBytes float64
	NetRxPkts, NetTxPkts   uint64

	// Kernel counters (cumulative)
	CtxSwitches, Interrupts, SoftIRQs, Forks uint64
	Faults, MajFaults                        uint64
	PgInBytes, PgOutBytes                    float64

	// Instantaneous
	Procs, RunQueue, Blocked, OpenFds, TCPSocks, UDPSocks int
	Load1, Load5, Load15                                  float64
}

// Add returns s with every counter and gauge of o summed in, for
// aggregate targets that report several instances as one. At is kept;
// FreqHz is taken from o, since the parts of an aggregate share one
// clock rate.
func (s Snapshot) Add(o Snapshot) Snapshot {
	s.CPUCycles += o.CPUCycles
	s.CPUBusy += o.CPUBusy
	s.StealTime += o.StealTime
	s.Cores += o.Cores
	s.FreqHz = o.FreqHz
	s.MemTotal += o.MemTotal
	s.MemUsed += o.MemUsed
	s.MemBuffers += o.MemBuffers
	s.MemCached += o.MemCached
	s.DiskReadBytes += o.DiskReadBytes
	s.DiskWriteBytes += o.DiskWriteBytes
	s.DiskReadOps += o.DiskReadOps
	s.DiskWriteOps += o.DiskWriteOps
	s.DiskBusy += o.DiskBusy
	s.NetRxBytes += o.NetRxBytes
	s.NetTxBytes += o.NetTxBytes
	s.NetRxPkts += o.NetRxPkts
	s.NetTxPkts += o.NetTxPkts
	s.CtxSwitches += o.CtxSwitches
	s.Interrupts += o.Interrupts
	s.SoftIRQs += o.SoftIRQs
	s.Forks += o.Forks
	s.Faults += o.Faults
	s.MajFaults += o.MajFaults
	s.PgInBytes += o.PgInBytes
	s.PgOutBytes += o.PgOutBytes
	s.Procs += o.Procs
	s.RunQueue += o.RunQueue
	s.Blocked += o.Blocked
	s.OpenFds += o.OpenFds
	s.TCPSocks += o.TCPSocks
	s.UDPSocks += o.UDPSocks
	s.Load1 += o.Load1
	s.Load5 += o.Load5
	s.Load15 += o.Load15
	return s
}

// Metric is one catalog entry: identity plus an evaluator over two
// consecutive snapshots.
type Metric struct {
	// Name follows sar naming (e.g. "%user", "rxkB/s [eth0]").
	Name string
	// Group is the sar section ("cpu", "memory", "disk", ...).
	Group string
	// Unit labels the value.
	Unit string
	// Description explains the metric (Table 1 column).
	Description string
	// Eval computes the sample from (prev, cur) over dt seconds.
	Eval func(prev, cur *Snapshot, dt float64) float64
}

// rate differences a cumulative float64 field per second.
func rate(f func(*Snapshot) float64) func(*Snapshot, *Snapshot, float64) float64 {
	return func(prev, cur *Snapshot, dt float64) float64 {
		if dt <= 0 {
			return 0
		}
		return (f(cur) - f(prev)) / dt
	}
}

func urate(f func(*Snapshot) uint64) func(*Snapshot, *Snapshot, float64) float64 {
	return func(prev, cur *Snapshot, dt float64) float64 {
		if dt <= 0 {
			return 0
		}
		return float64(f(cur)-f(prev)) / dt
	}
}

func gauge(f func(*Snapshot) float64) func(*Snapshot, *Snapshot, float64) float64 {
	return func(_, cur *Snapshot, _ float64) float64 { return f(cur) }
}

func constant(v float64) func(*Snapshot, *Snapshot, float64) float64 {
	return func(*Snapshot, *Snapshot, float64) float64 { return v }
}

// cpuBusyFraction is the busy share of one sampling window.
func cpuBusyFraction(prev, cur *Snapshot, dt float64) float64 {
	if dt <= 0 || cur.Cores == 0 {
		return 0
	}
	f := (cur.CPUBusy - prev.CPUBusy).Sec() / dt / float64(cur.Cores)
	if f > 1 {
		f = 1
	}
	if f < 0 {
		f = 0
	}
	return f
}

func stealFraction(prev, cur *Snapshot, dt float64) float64 {
	if dt <= 0 || cur.Cores == 0 {
		return 0
	}
	f := (cur.StealTime - prev.StealTime).Sec() / dt / float64(cur.Cores)
	if f < 0 {
		f = 0
	}
	return f
}

func ioWaitFraction(prev, cur *Snapshot, dt float64) float64 {
	if dt <= 0 {
		return 0
	}
	f := (cur.DiskBusy - prev.DiskBusy).Sec() / dt * 0.5
	if f > 0.3 {
		f = 0.3
	}
	return f
}

// Busy-time split between user and system mode for the LAMP-style
// workloads modeled here.
const (
	userShare = 0.78
	sysShare  = 0.22
)

// Catalog builds the 182-metric sysstat catalog. The count is pinned by
// a test; extending the catalog means consciously deciding the paper
// comparison no longer holds.
func Catalog() []Metric {
	var ms []Metric
	add := func(group, name, unit, desc string, eval func(*Snapshot, *Snapshot, float64) float64) {
		ms = append(ms, Metric{Name: name, Group: group, Unit: unit, Description: desc, Eval: eval})
	}

	// --- CPU utilization: "all" plus two logical CPUs, 6 columns each (18).
	for _, cpu := range []string{"all", "0", "1"} {
		cpu := cpu
		add("cpu", "%user ["+cpu+"]", "%", "time in user mode on cpu "+cpu,
			func(p, c *Snapshot, dt float64) float64 { return cpuBusyFraction(p, c, dt) * userShare * 100 })
		add("cpu", "%nice ["+cpu+"]", "%", "time in niced user mode on cpu "+cpu, constant(0))
		add("cpu", "%system ["+cpu+"]", "%", "time in kernel mode on cpu "+cpu,
			func(p, c *Snapshot, dt float64) float64 { return cpuBusyFraction(p, c, dt) * sysShare * 100 })
		add("cpu", "%iowait ["+cpu+"]", "%", "idle time with outstanding disk I/O on cpu "+cpu,
			func(p, c *Snapshot, dt float64) float64 { return ioWaitFraction(p, c, dt) * 100 })
		add("cpu", "%steal ["+cpu+"]", "%", "involuntary wait while the hypervisor served others on cpu "+cpu,
			func(p, c *Snapshot, dt float64) float64 { return stealFraction(p, c, dt) * 100 })
		add("cpu", "%idle ["+cpu+"]", "%", "idle time on cpu "+cpu,
			func(p, c *Snapshot, dt float64) float64 {
				idle := 100 - (cpuBusyFraction(p, c, dt)+ioWaitFraction(p, c, dt)+stealFraction(p, c, dt))*100
				if idle < 0 {
					idle = 0
				}
				return idle
			})
	}

	// --- Task creation and switching (2).
	add("task", "proc/s", "1/s", "tasks created per second", urate(func(s *Snapshot) uint64 { return s.Forks }))
	add("task", "cswch/s", "1/s", "context switches per second", urate(func(s *Snapshot) uint64 { return s.CtxSwitches }))

	// --- Interrupts: total plus 16 IRQ lines (17).
	add("intr", "intr/s [sum]", "1/s", "total interrupts per second", urate(func(s *Snapshot) uint64 { return s.Interrupts }))
	irqShare := []float64{0.52, 0.01, 0, 0.002, 0.001, 0, 0, 0.001, 0, 0.002, 0.003, 0.001, 0.18, 0.002, 0.15, 0.12}
	for i := 0; i < 16; i++ {
		share := irqShare[i]
		add("intr", fmt.Sprintf("intr/s [i%03d]", i), "1/s",
			fmt.Sprintf("interrupts per second on IRQ line %d", i),
			func(p, c *Snapshot, dt float64) float64 {
				if dt <= 0 {
					return 0
				}
				return float64(c.Interrupts-p.Interrupts) / dt * share
			})
	}

	// --- Swapping (2): the testbed never swapped; pinned at zero.
	add("swap", "pswpin/s", "pages/s", "pages swapped in per second", constant(0))
	add("swap", "pswpout/s", "pages/s", "pages swapped out per second", constant(0))

	// --- Paging (9).
	add("paging", "pgpgin/s", "KB/s", "KB paged in from disk per second", rate(func(s *Snapshot) float64 { return s.PgInBytes / 1024 }))
	add("paging", "pgpgout/s", "KB/s", "KB paged out to disk per second", rate(func(s *Snapshot) float64 { return s.PgOutBytes / 1024 }))
	add("paging", "fault/s", "1/s", "page faults per second", urate(func(s *Snapshot) uint64 { return s.Faults }))
	add("paging", "majflt/s", "1/s", "major faults per second", urate(func(s *Snapshot) uint64 { return s.MajFaults }))
	add("paging", "pgfree/s", "pages/s", "pages freed per second",
		func(p, c *Snapshot, dt float64) float64 {
			if dt <= 0 {
				return 0
			}
			return float64(c.Faults-p.Faults) / dt * 1.1
		})
	add("paging", "pgscank/s", "pages/s", "pages scanned by kswapd per second", constant(0))
	add("paging", "pgscand/s", "pages/s", "pages scanned directly per second", constant(0))
	add("paging", "pgsteal/s", "pages/s", "pages reclaimed per second", constant(0))
	add("paging", "%vmeff", "%", "reclaim efficiency", constant(0))

	// --- I/O summary (5).
	add("io", "tps", "1/s", "transfers per second to disk",
		urate(func(s *Snapshot) uint64 { return s.DiskReadOps + s.DiskWriteOps }))
	add("io", "rtps", "1/s", "read requests per second", urate(func(s *Snapshot) uint64 { return s.DiskReadOps }))
	add("io", "wtps", "1/s", "write requests per second", urate(func(s *Snapshot) uint64 { return s.DiskWriteOps }))
	add("io", "bread/s", "sectors/s", "sectors read per second", rate(func(s *Snapshot) float64 { return s.DiskReadBytes / 512 }))
	add("io", "bwrtn/s", "sectors/s", "sectors written per second", rate(func(s *Snapshot) float64 { return s.DiskWriteBytes / 512 }))

	// --- Memory rates (3).
	add("memrate", "frmpg/s", "pages/s", "pages freed (negative: allocated) per second",
		rate(func(s *Snapshot) float64 { return -(s.MemUsed) / 4096 }))
	add("memrate", "bufpg/s", "pages/s", "buffer pages added per second",
		rate(func(s *Snapshot) float64 { return s.MemBuffers / 4096 }))
	add("memrate", "campg/s", "pages/s", "cached pages added per second",
		rate(func(s *Snapshot) float64 { return s.MemCached / 4096 }))

	// --- Memory utilization (10).
	add("memory", "kbmemfree", "KB", "free memory", gauge(func(s *Snapshot) float64 { return (s.MemTotal - s.MemUsed) / 1024 }))
	add("memory", "kbmemused", "KB", "used memory", gauge(func(s *Snapshot) float64 { return s.MemUsed / 1024 }))
	add("memory", "%memused", "%", "used memory share", gauge(func(s *Snapshot) float64 {
		if s.MemTotal == 0 {
			return 0
		}
		return s.MemUsed / s.MemTotal * 100
	}))
	add("memory", "kbbuffers", "KB", "kernel buffer memory", gauge(func(s *Snapshot) float64 { return s.MemBuffers / 1024 }))
	add("memory", "kbcached", "KB", "page cache memory", gauge(func(s *Snapshot) float64 { return s.MemCached / 1024 }))
	add("memory", "kbcommit", "KB", "committed address space", gauge(func(s *Snapshot) float64 { return s.MemUsed * 1.4 / 1024 }))
	add("memory", "%commit", "%", "committed share of memory+swap", gauge(func(s *Snapshot) float64 {
		if s.MemTotal == 0 {
			return 0
		}
		return s.MemUsed * 1.4 / s.MemTotal * 100
	}))
	add("memory", "kbactive", "KB", "active memory", gauge(func(s *Snapshot) float64 { return s.MemUsed * 0.7 / 1024 }))
	add("memory", "kbinact", "KB", "inactive memory", gauge(func(s *Snapshot) float64 { return s.MemUsed * 0.3 / 1024 }))
	add("memory", "kbdirty", "KB", "dirty pages awaiting writeback",
		func(p, c *Snapshot, dt float64) float64 {
			if dt <= 0 {
				return 0
			}
			return (c.DiskWriteBytes - p.DiskWriteBytes) / 1024 * 0.4
		})

	// --- Swap utilization (5): 2 GB swap, unused.
	const swapKB = 2 << 20
	add("swaputil", "kbswpfree", "KB", "free swap", constant(swapKB))
	add("swaputil", "kbswpused", "KB", "used swap", constant(0))
	add("swaputil", "%swpused", "%", "used swap share", constant(0))
	add("swaputil", "kbswpcad", "KB", "cached swap", constant(0))
	add("swaputil", "%swpcad", "%", "cached swap share", constant(0))

	// --- Hugepages (3): not configured on the testbed.
	add("huge", "kbhugfree", "KB", "free hugepage memory", constant(0))
	add("huge", "kbhugused", "KB", "used hugepage memory", constant(0))
	add("huge", "%hugused", "%", "hugepage use share", constant(0))

	// --- Inode/file tables (4).
	add("files", "dentunusd", "count", "unused dentry cache entries",
		gauge(func(s *Snapshot) float64 { return 12000 + float64(s.Procs)*20 }))
	add("files", "file-nr", "count", "open file handles", gauge(func(s *Snapshot) float64 { return float64(s.OpenFds) }))
	add("files", "inode-nr", "count", "cached inodes", gauge(func(s *Snapshot) float64 { return 24000 + float64(s.Procs)*12 }))
	add("files", "pty-nr", "count", "pseudo-terminals in use", constant(2))

	// --- Run queue and load (6).
	add("load", "runq-sz", "tasks", "run queue length", gauge(func(s *Snapshot) float64 { return float64(s.RunQueue) }))
	add("load", "plist-sz", "tasks", "task list size", gauge(func(s *Snapshot) float64 { return float64(s.Procs) }))
	add("load", "ldavg-1", "load", "1-minute load average", gauge(func(s *Snapshot) float64 { return s.Load1 }))
	add("load", "ldavg-5", "load", "5-minute load average", gauge(func(s *Snapshot) float64 { return s.Load5 }))
	add("load", "ldavg-15", "load", "15-minute load average", gauge(func(s *Snapshot) float64 { return s.Load15 }))
	add("load", "blocked", "tasks", "tasks blocked on I/O", gauge(func(s *Snapshot) float64 { return float64(s.Blocked) }))

	// --- TTY (6): headless servers.
	for _, m := range []struct{ n, d string }{
		{"rcvin/s", "serial receive interrupts per second"},
		{"xmtin/s", "serial transmit interrupts per second"},
		{"framerr/s", "serial frame errors per second"},
		{"prtyerr/s", "serial parity errors per second"},
		{"brk/s", "serial breaks per second"},
		{"ovrun/s", "serial overruns per second"},
	} {
		add("tty", m.n, "1/s", m.d, constant(0))
	}

	// --- Per-device disk stats: sda (data) and sdb (idle) x 8 (16).
	diskDev := func(dev string, active bool) {
		act := func(f func(*Snapshot, *Snapshot, float64) float64) func(*Snapshot, *Snapshot, float64) float64 {
			if active {
				return f
			}
			return constant(0)
		}
		add("disk", "tps ["+dev+"]", "1/s", "transfers per second on "+dev,
			act(urate(func(s *Snapshot) uint64 { return s.DiskReadOps + s.DiskWriteOps })))
		add("disk", "rd_sec/s ["+dev+"]", "sectors/s", "sectors read per second on "+dev,
			act(rate(func(s *Snapshot) float64 { return s.DiskReadBytes / 512 })))
		add("disk", "wr_sec/s ["+dev+"]", "sectors/s", "sectors written per second on "+dev,
			act(rate(func(s *Snapshot) float64 { return s.DiskWriteBytes / 512 })))
		add("disk", "avgrq-sz ["+dev+"]", "sectors", "average request size on "+dev,
			act(func(p, c *Snapshot, dt float64) float64 {
				ops := float64((c.DiskReadOps + c.DiskWriteOps) - (p.DiskReadOps + p.DiskWriteOps))
				if ops == 0 {
					return 0
				}
				return ((c.DiskReadBytes + c.DiskWriteBytes) - (p.DiskReadBytes + p.DiskWriteBytes)) / 512 / ops
			}))
		add("disk", "avgqu-sz ["+dev+"]", "requests", "average queue length on "+dev,
			act(func(p, c *Snapshot, dt float64) float64 {
				if dt <= 0 {
					return 0
				}
				return (c.DiskBusy - p.DiskBusy).Sec() / dt * 1.3
			}))
		add("disk", "await ["+dev+"]", "ms", "average request latency on "+dev,
			act(func(p, c *Snapshot, dt float64) float64 {
				ops := float64((c.DiskReadOps + c.DiskWriteOps) - (p.DiskReadOps + p.DiskWriteOps))
				if ops == 0 {
					return 0
				}
				return (c.DiskBusy - p.DiskBusy).Sec() * 1000 / ops * 1.4
			}))
		add("disk", "svctm ["+dev+"]", "ms", "average service time on "+dev,
			act(func(p, c *Snapshot, dt float64) float64 {
				ops := float64((c.DiskReadOps + c.DiskWriteOps) - (p.DiskReadOps + p.DiskWriteOps))
				if ops == 0 {
					return 0
				}
				return (c.DiskBusy - p.DiskBusy).Sec() * 1000 / ops
			}))
		add("disk", "%util ["+dev+"]", "%", "device utilization of "+dev,
			act(func(p, c *Snapshot, dt float64) float64 {
				if dt <= 0 {
					return 0
				}
				return (c.DiskBusy - p.DiskBusy).Sec() / dt * 100
			}))
	}
	diskDev("sda", true)
	diskDev("sdb", false)

	// --- Per-interface network stats: eth0 (all traffic) and lo x 7 (14).
	netDev := func(dev string, active bool) {
		act := func(f func(*Snapshot, *Snapshot, float64) float64) func(*Snapshot, *Snapshot, float64) float64 {
			if active {
				return f
			}
			return constant(0)
		}
		add("net", "rxpck/s ["+dev+"]", "1/s", "packets received per second on "+dev,
			act(urate(func(s *Snapshot) uint64 { return s.NetRxPkts })))
		add("net", "txpck/s ["+dev+"]", "1/s", "packets transmitted per second on "+dev,
			act(urate(func(s *Snapshot) uint64 { return s.NetTxPkts })))
		add("net", "rxkB/s ["+dev+"]", "KB/s", "KB received per second on "+dev,
			act(rate(func(s *Snapshot) float64 { return s.NetRxBytes / 1024 })))
		add("net", "txkB/s ["+dev+"]", "KB/s", "KB transmitted per second on "+dev,
			act(rate(func(s *Snapshot) float64 { return s.NetTxBytes / 1024 })))
		add("net", "rxcmp/s ["+dev+"]", "1/s", "compressed packets received per second on "+dev, constant(0))
		add("net", "txcmp/s ["+dev+"]", "1/s", "compressed packets transmitted per second on "+dev, constant(0))
		add("net", "rxmcst/s ["+dev+"]", "1/s", "multicast packets received per second on "+dev,
			act(constant(0.4)))
	}
	netDev("eth0", true)
	netDev("lo", false)

	// --- Per-interface error stats x 9 (18): a healthy gigabit LAN.
	for _, dev := range []string{"eth0", "lo"} {
		for _, m := range []struct{ n, d string }{
			{"rxerr/s", "receive errors per second"},
			{"txerr/s", "transmit errors per second"},
			{"coll/s", "collisions per second"},
			{"rxdrop/s", "received packets dropped per second"},
			{"txdrop/s", "transmitted packets dropped per second"},
			{"txcarr/s", "carrier errors per second"},
			{"txfifo/s", "transmit FIFO overruns per second"},
			{"rxfifo/s", "receive FIFO overruns per second"},
			{"rxfram/s", "frame alignment errors per second"},
		} {
			add("neterr", m.n+" ["+dev+"]", "1/s", m.d+" on "+dev, constant(0))
		}
	}

	// --- NFS client (6) and server (11): no NFS on the testbed.
	for _, m := range []struct{ n, d string }{
		{"call/s", "NFS client RPC calls per second"},
		{"retrans/s", "NFS client retransmissions per second"},
		{"read/s", "NFS client reads per second"},
		{"write/s", "NFS client writes per second"},
		{"access/s", "NFS client access calls per second"},
		{"getatt/s", "NFS client getattr calls per second"},
	} {
		add("nfs", m.n, "1/s", m.d, constant(0))
	}
	for _, m := range []struct{ n, d string }{
		{"scall/s", "NFS server RPC calls per second"},
		{"badcall/s", "NFS server bad calls per second"},
		{"packet/s", "NFS server packets per second"},
		{"udp/s", "NFS server UDP packets per second"},
		{"tcp/s", "NFS server TCP packets per second"},
		{"hit/s", "NFS server reply-cache hits per second"},
		{"miss/s", "NFS server reply-cache misses per second"},
		{"sread/s", "NFS server reads per second"},
		{"swrite/s", "NFS server writes per second"},
		{"saccess/s", "NFS server access calls per second"},
		{"sgetatt/s", "NFS server getattr calls per second"},
	} {
		add("nfsd", m.n, "1/s", m.d, constant(0))
	}

	// --- Sockets (6).
	add("sock", "totsck", "count", "sockets in use", gauge(func(s *Snapshot) float64 { return float64(s.TCPSocks + s.UDPSocks + 12) }))
	add("sock", "tcpsck", "count", "TCP sockets in use", gauge(func(s *Snapshot) float64 { return float64(s.TCPSocks) }))
	add("sock", "udpsck", "count", "UDP sockets in use", gauge(func(s *Snapshot) float64 { return float64(s.UDPSocks) }))
	add("sock", "rawsck", "count", "raw sockets in use", constant(0))
	add("sock", "ip-frag", "count", "IP fragments queued", constant(0))
	add("sock", "tcp-tw", "count", "TCP sockets in TIME_WAIT",
		func(p, c *Snapshot, dt float64) float64 {
			if dt <= 0 {
				return 0
			}
			return float64(c.NetRxPkts-p.NetRxPkts) / dt * 0.05
		})

	// --- IP (8).
	pktRate := func(scale float64) func(*Snapshot, *Snapshot, float64) float64 {
		return func(p, c *Snapshot, dt float64) float64 {
			if dt <= 0 {
				return 0
			}
			return float64((c.NetRxPkts+c.NetTxPkts)-(p.NetRxPkts+p.NetTxPkts)) / dt * scale
		}
	}
	add("ip", "irec/s", "1/s", "IP datagrams received per second", urate(func(s *Snapshot) uint64 { return s.NetRxPkts }))
	add("ip", "fwddgm/s", "1/s", "IP datagrams forwarded per second", constant(0))
	add("ip", "idel/s", "1/s", "IP datagrams delivered per second", urate(func(s *Snapshot) uint64 { return s.NetRxPkts }))
	add("ip", "orq/s", "1/s", "IP datagrams sent per second", urate(func(s *Snapshot) uint64 { return s.NetTxPkts }))
	add("ip", "asmrq/s", "1/s", "IP fragments needing reassembly per second", constant(0))
	add("ip", "asmok/s", "1/s", "IP datagrams reassembled per second", constant(0))
	add("ip", "fragok/s", "1/s", "IP datagrams fragmented per second", constant(0))
	add("ip", "fragcrt/s", "1/s", "IP fragments created per second", constant(0))

	// --- ICMP (4).
	add("icmp", "imsg/s", "1/s", "ICMP messages received per second", pktRate(0.0004))
	add("icmp", "omsg/s", "1/s", "ICMP messages sent per second", pktRate(0.0004))
	add("icmp", "iech/s", "1/s", "ICMP echo requests received per second", pktRate(0.0002))
	add("icmp", "oech/s", "1/s", "ICMP echo replies sent per second", pktRate(0.0002))

	// --- TCP (4).
	add("tcp", "active/s", "1/s", "active TCP opens per second", pktRate(0.01))
	add("tcp", "passive/s", "1/s", "passive TCP opens per second", pktRate(0.012))
	add("tcp", "iseg/s", "1/s", "TCP segments received per second", urate(func(s *Snapshot) uint64 { return s.NetRxPkts }))
	add("tcp", "oseg/s", "1/s", "TCP segments sent per second", urate(func(s *Snapshot) uint64 { return s.NetTxPkts }))

	// --- UDP (4).
	add("udp", "idgm/s", "1/s", "UDP datagrams received per second", pktRate(0.001))
	add("udp", "odgm/s", "1/s", "UDP datagrams sent per second", pktRate(0.001))
	add("udp", "noport/s", "1/s", "UDP no-port errors per second", constant(0))
	add("udp", "idgmerr/s", "1/s", "UDP datagram errors per second", constant(0))

	// --- Power (1).
	add("power", "MHz", "MHz", "current processor clock", gauge(func(s *Snapshot) float64 { return s.FreqHz / 1e6 }))

	return ms
}

// CatalogSize is the pinned sysstat metric count per monitored instance,
// matching the paper's 182.
const CatalogSize = 182
