package rubisdb

import "fmt"

// CostModel converts metered engine work into CPU cycles (in the
// guest-visible cycle scale used throughout the simulation).
type CostModel struct {
	CyclesPerPageHit  float64
	CyclesPerPageMiss float64
	CyclesPerRowRead  float64
	CyclesPerRowWrite float64
	CyclesPerByteOut  float64
	CyclesPerWALByte  float64
	// BaseCyclesPerQuery covers parse/plan/protocol per operation.
	BaseCyclesPerQuery float64
}

// DefaultCostModel returns the calibrated MySQL-tier cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		CyclesPerPageHit:   7200,
		CyclesPerPageMiss:  59000,
		CyclesPerRowRead:   11800,
		CyclesPerRowWrite:  25000,
		CyclesPerByteOut:   13.6,
		CyclesPerWALByte:   5.0,
		BaseCyclesPerQuery: 204000,
	}
}

// Receipt reports the physical work of one operation window.
type Receipt struct {
	Work Meter
	// CPUCycles is the estimated compute in guest-visible cycles.
	CPUCycles float64
	// DiskReadBytes and DiskWriteBytes are the storage traffic implied
	// by buffer misses, write-backs, and WAL appends.
	DiskReadBytes  float64
	DiskWriteBytes float64
}

// Engine is the storage engine instance standing in for MySQL. The
// store is a MemStore for a directly built engine and a cowStore for a
// view attached to a Golden snapshot (see snapshot.go).
type Engine struct {
	store Store
	pool  *BufferPool
	meter *Meter
	cost  CostModel

	tables map[string]*Table
	// tableOrder keeps registration order so Seal/Rearm pair table state
	// deterministically (the tables map iterates in random order).
	tableOrder []*Table
	nextID     uint32
}

// NewEngine builds an engine with a buffer pool of bufferPages pages.
func NewEngine(bufferPages int, cost CostModel) *Engine {
	meter := &Meter{}
	store := NewMemStore()
	return &Engine{
		store:  store,
		pool:   NewBufferPool(store, bufferPages, meter),
		meter:  meter,
		cost:   cost,
		tables: make(map[string]*Table),
		nextID: 1,
	}
}

// filesPerTable spaces out the file-id range of each table: heap, pk
// index, then secondary indexes.
const filesPerTable = 16

// CreateTable registers a table with the given primary key column
// (int64) and secondary index columns (int64).
func (e *Engine) CreateTable(name string, schema Schema, pkCol string, secondaryCols ...string) (*Table, error) {
	if _, exists := e.tables[name]; exists {
		return nil, fmt.Errorf("rubisdb: table %q already exists", name)
	}
	pki, err := schema.ColIndex(pkCol)
	if err != nil {
		return nil, err
	}
	if schema[pki].Type != TInt64 {
		return nil, fmt.Errorf("rubisdb: primary key %q must be int64", pkCol)
	}
	base := e.nextID * filesPerTable
	e.nextID++
	// The table's indexes are carved from one array.
	trees := make([]BTree, 1+len(secondaryCols))
	if err := trees[0].create(e.pool, base+1); err != nil {
		return nil, err
	}
	// The table and its heap share one allocation.
	th := &struct {
		table Table
		heap  Heap
	}{heap: Heap{pool: e.pool, file: base}}
	t := &th.table
	*t = Table{
		Name:       name,
		Schema:     schema,
		id:         base,
		heap:       &th.heap,
		pkCol:      pki,
		pk:         &trees[0],
		engine:     e,
		rowScratch: make([]byte, 0, rowScratchCap),
	}
	if n := len(secondaryCols); n > 0 {
		t.secCols = make([]int, 0, n)
		t.secs = make([]*BTree, 0, n)
	}
	for i, col := range secondaryCols {
		ci, err := schema.ColIndex(col)
		if err != nil {
			return nil, err
		}
		if schema[ci].Type != TInt64 {
			return nil, fmt.Errorf("rubisdb: secondary index column %q must be int64", col)
		}
		sec := &trees[1+i]
		if err := sec.create(e.pool, base+2+uint32(i)); err != nil {
			return nil, err
		}
		t.secCols = append(t.secCols, ci)
		t.secs = append(t.secs, sec)
	}
	e.tables[name] = t
	e.tableOrder = append(e.tableOrder, t)
	return t, nil
}

// Table returns a registered table or an error.
func (e *Engine) Table(name string) (*Table, error) {
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("rubisdb: no table %q", name)
	}
	return t, nil
}

// Meter exposes the cumulative engine meter.
func (e *Engine) Meter() Meter { return *e.meter }

// Check verifies the buffer pool of a quiescent engine (no query in
// flight); see BufferPool.check. It is a deliberate test hook: no
// production path calls it, and the engine and snapshot tests use it
// to prove a rejected write or a view's queries leave no frame pinned
// and no directory slot stale.
func (e *Engine) Check() error { return e.pool.check() }

// Checkpoint flushes all dirty pages (background writer behaviour).
func (e *Engine) Checkpoint() error { return e.pool.FlushAll() }

// FuzzyCheckpoint flushes at most limit dirty pages.
func (e *Engine) FuzzyCheckpoint(limit int) (int, error) { return e.pool.FlushLimit(limit) }

// ReceiptSince converts the work done since snapshot into a Receipt.
func (e *Engine) ReceiptSince(snapshot Meter) Receipt {
	d := e.meter.Sub(snapshot)
	c := e.cost
	cycles := c.BaseCyclesPerQuery +
		float64(d.PageHits)*c.CyclesPerPageHit +
		float64(d.PageMisses)*c.CyclesPerPageMiss +
		float64(d.RowsRead)*c.CyclesPerRowRead +
		float64(d.RowsWritten)*c.CyclesPerRowWrite +
		d.BytesOut*c.CyclesPerByteOut +
		d.WALBytes*c.CyclesPerWALByte
	return Receipt{
		Work:           d,
		CPUCycles:      cycles,
		DiskReadBytes:  float64(d.PageMisses) * PageSize,
		DiskWriteBytes: float64(d.PagesWritten)*PageSize + d.WALBytes,
	}
}
