package hw

import (
	"fmt"
	"slices"

	"vwchar/internal/sim"
)

// Disk is a FIFO storage device. Each operation costs a positional
// overhead (seek+rotate, amortized for sequential batches by the caller)
// plus transfer time at the device bandwidth.
type Disk struct {
	k         *sim.Kernel
	seek      sim.Time
	bytesPerS float64

	busyUntil sim.Time

	// cumulative counters
	readBytes    float64
	writtenBytes float64
	readOps      uint64
	writeOps     uint64
	busyTime     sim.Time
}

// NewDisk builds a disk with the given per-op overhead and bandwidth.
func NewDisk(k *sim.Kernel, name string, seek sim.Time, bytesPerS float64) *Disk {
	if bytesPerS <= 0 {
		panic(fmt.Sprintf("hw: disk %q needs positive bandwidth", name))
	}
	return &Disk{k: k, seek: seek, bytesPerS: bytesPerS}
}

// Submit enqueues an operation of the given size; done(arg) fires when
// the transfer finishes. write selects the direction counter.
func (d *Disk) Submit(bytes float64, write bool, done sim.Callback, arg any) {
	if bytes < 0 {
		bytes = 0
	}
	service := d.seek + sim.Time(bytes/d.bytesPerS*float64(sim.Second))
	start := d.k.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	finish := start + service
	d.busyUntil = finish
	d.busyTime += service
	if write {
		d.writtenBytes += bytes
		d.writeOps++
	} else {
		d.readBytes += bytes
		d.readOps++
	}
	if done != nil {
		d.k.AtCall(finish, done, arg)
	}
}

// Account records I/O bytes without simulating queueing delay. The
// collector still sees the demand. Used for background activity (log
// flushes, page-cache writeback) whose latency nobody waits on.
func (d *Disk) Account(bytes float64, write bool) {
	if bytes < 0 {
		return
	}
	if write {
		d.writtenBytes += bytes
		d.writeOps++
	} else {
		d.readBytes += bytes
		d.readOps++
	}
}

// ReadBytes reports cumulative bytes read.
func (d *Disk) ReadBytes() float64 { return d.readBytes }

// WrittenBytes reports cumulative bytes written.
func (d *Disk) WrittenBytes() float64 { return d.writtenBytes }

// Ops reports cumulative (read, write) operation counts.
func (d *Disk) Ops() (reads, writes uint64) { return d.readOps, d.writeOps }

// BusyTime reports cumulative service time.
func (d *Disk) BusyTime() sim.Time { return d.busyTime }

// NIC is a full-duplex network interface with per-direction bandwidth and
// a fixed per-transfer latency.
type NIC struct {
	k         *sim.Kernel
	latency   sim.Time
	bytesPerS float64

	rxBusyUntil sim.Time
	txBusyUntil sim.Time

	// cumulative counters
	rxBytes   float64
	txBytes   float64
	rxPackets uint64
	txPackets uint64
}

// NewNIC builds an interface with the given one-way latency and per
// direction bandwidth.
func NewNIC(k *sim.Kernel, name string, latency sim.Time, bytesPerS float64) *NIC {
	if bytesPerS <= 0 {
		panic(fmt.Sprintf("hw: nic %q needs positive bandwidth", name))
	}
	return &NIC{k: k, latency: latency, bytesPerS: bytesPerS}
}

// mtu is the packet size used to convert bytes to packet counters.
const mtu = 1500.0

// Send transmits bytes out of this interface; done(arg) fires when the
// last byte is on the wire plus latency.
func (n *NIC) Send(bytes float64, done sim.Callback, arg any) {
	if bytes < 0 {
		bytes = 0
	}
	service := sim.Time(bytes / n.bytesPerS * float64(sim.Second))
	start := n.k.Now()
	if n.txBusyUntil > start {
		start = n.txBusyUntil
	}
	finish := start + service
	n.txBusyUntil = finish
	n.txBytes += bytes
	n.txPackets += uint64(bytes/mtu) + 1
	if done != nil {
		n.k.AtCall(finish+n.latency, done, arg)
	}
}

// Receive accounts for inbound bytes; done(arg) fires after the
// transfer.
func (n *NIC) Receive(bytes float64, done sim.Callback, arg any) {
	if bytes < 0 {
		bytes = 0
	}
	service := sim.Time(bytes / n.bytesPerS * float64(sim.Second))
	start := n.k.Now()
	if n.rxBusyUntil > start {
		start = n.rxBusyUntil
	}
	finish := start + service
	n.rxBusyUntil = finish
	n.rxBytes += bytes
	n.rxPackets += uint64(bytes/mtu) + 1
	if done != nil {
		n.k.AtCall(finish, done, arg)
	}
}

// Account records traffic without simulating transfer delay.
func (n *NIC) Account(rx, tx float64) {
	if rx > 0 {
		n.rxBytes += rx
		n.rxPackets += uint64(rx/mtu) + 1
	}
	if tx > 0 {
		n.txBytes += tx
		n.txPackets += uint64(tx/mtu) + 1
	}
}

// RxBytes reports cumulative received bytes.
func (n *NIC) RxBytes() float64 { return n.rxBytes }

// TxBytes reports cumulative transmitted bytes.
func (n *NIC) TxBytes() float64 { return n.txBytes }

// Packets reports cumulative (rx, tx) packet counts.
func (n *NIC) Packets() (rx, tx uint64) { return n.rxPackets, n.txPackets }

// Memory tracks RAM usage against a capacity. Usage is labeled so the OS
// model can expose kernel/app/cache components separately.
type Memory struct {
	capacity float64
	// labels is kept sorted, with vals[i] the usage of labels[i], so Used
	// sums in one fixed order whatever order the labels were set in: a
	// map's random iteration order changed the sum's last bits from run
	// to run. A label whose usage drops to zero keeps its slot at 0.
	labels []string
	vals   []float64
}

// NewMemory builds a memory of the given capacity in bytes.
func NewMemory(capacity float64) *Memory {
	if capacity <= 0 {
		panic("hw: memory needs positive capacity")
	}
	return &Memory{capacity: capacity}
}

// Capacity reports total bytes.
func (m *Memory) Capacity() float64 { return m.capacity }

// Set fixes the usage of a labeled component (e.g. "pagecache").
func (m *Memory) Set(label string, bytes float64) {
	i, ok := slices.BinarySearch(m.labels, label)
	if bytes <= 0 {
		if ok {
			m.vals[i] = 0
		}
		return
	}
	if !ok {
		m.labels = slices.Insert(m.labels, i, label)
		m.vals = slices.Insert(m.vals, i, 0)
	}
	m.vals[i] = bytes
}

// Get reports the usage of a labeled component.
func (m *Memory) Get(label string) float64 {
	if i, ok := slices.BinarySearch(m.labels, label); ok {
		return m.vals[i]
	}
	return 0
}

// Add adjusts a labeled component by delta, clamping at zero.
func (m *Memory) Add(label string, delta float64) {
	m.Set(label, m.Get(label)+delta)
}

// Used reports total bytes in use across all components, clamped to
// capacity.
func (m *Memory) Used() float64 {
	total := 0.0
	for _, v := range m.vals {
		total += v
	}
	if total > m.capacity {
		total = m.capacity
	}
	return total
}
