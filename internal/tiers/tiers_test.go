package tiers

import (
	"testing"

	"vwchar/internal/hw"
	"vwchar/internal/osmodel"
	"vwchar/internal/rng"
	"vwchar/internal/rubis"
	"vwchar/internal/sim"
	"vwchar/internal/xen"
)

func smallDataset() rubis.DatasetConfig {
	return rubis.DatasetConfig{
		Regions: 10, Categories: 8, Users: 400,
		ActiveItems: 150, OldItems: 250,
		BidsPerItem: 3, CommentsPerUser: 1, BufferPages: 48,
	}
}

type vmRig struct {
	k      *sim.Kernel
	hv     *xen.Hypervisor
	guests []*xen.Domain // web, db
	app    *rubis.App
	web    *WebAppServer
	db     *DBServer
	driver *Driver
}

func newVMRig(t *testing.T, clients int) *vmRig {
	t.Helper()
	k := sim.NewKernel()
	src := rng.NewSource(21)
	app, err := rubis.NewApp(smallDataset(), src.Stream("data"))
	if err != nil {
		t.Fatal(err)
	}
	host := hw.NewServer(k, hw.ProLiantSpec("host"))
	hv := xen.New(k, host, xen.DefaultParams())
	webDom := hv.CreateGuest("web", 2, 2<<30, 256)
	dbDom := hv.CreateGuest("db", 2, 2<<30, 256)
	webBE := &VMBackend{HV: hv, Dom: webDom}
	dbBE := &VMBackend{HV: hv, Dom: dbDom}
	db := NewDBServer(k, dbBE, app, DefaultDBParams("vm"))
	dbc := NewDBCluster(db, nil, 0)
	paths := []PathPair{{To: VMPath(hv, webDom, dbDom), From: VMPath(hv, dbDom, webDom)}}
	web := NewWebAppServer(k, webBE, dbc, paths, DefaultWebParams("vm"))
	fe := NewWebCluster(k, []*WebAppServer{web}, 1, nil)
	driver := NewDriver(k, app, rubis.BrowsingMix(), fe, rubis.DefaultCostParams(), clients, src)
	return &vmRig{k: k, hv: hv, guests: []*xen.Domain{webDom, dbDom}, app: app, web: web, db: db, driver: driver}
}

func TestVMDeploymentServesRequests(t *testing.T) {
	rig := newVMRig(t, 50)
	rig.driver.Start()
	rig.k.Run(60 * sim.Second)
	if rig.driver.Completed < 100 {
		t.Fatalf("completed only %d requests", rig.driver.Completed)
	}
	if rig.driver.Errors != 0 {
		t.Fatalf("%d interaction errors", rig.driver.Errors)
	}
	if rig.web.Served != rig.driver.Completed {
		t.Fatalf("web served %d != driver completed %d", rig.web.Served, rig.driver.Completed)
	}
	if rig.db.Queries == 0 {
		t.Fatal("no DB queries reached the back end")
	}
	// Every tier accumulated demand.
	guests := rig.guests
	if guests[0].VirtCycles() <= 0 || guests[1].VirtCycles() <= 0 {
		t.Fatal("guest CPU counters did not advance")
	}
	if guests[0].NetRxBytes <= 0 || guests[1].NetRxBytes <= 0 {
		t.Fatal("guest network counters did not advance")
	}
	if rig.driver.MeanResponseTime() <= 0 {
		t.Fatal("no response times recorded")
	}
	if rig.driver.ResponseTimeQuantile(0.95) < rig.driver.ResponseTimeQuantile(0.5) {
		t.Fatal("response time quantiles out of order")
	}
}

func TestPMDeploymentServesRequests(t *testing.T) {
	k := sim.NewKernel()
	src := rng.NewSource(22)
	app, err := rubis.NewApp(smallDataset(), src.Stream("data"))
	if err != nil {
		t.Fatal(err)
	}
	webSrv := hw.NewServer(k, hw.ProLiantSpec("web-pm"))
	dbSrv := hw.NewServer(k, hw.ProLiantSpec("db-pm"))
	webOS := osmodel.New(100)
	dbOS := osmodel.New(100)
	webBE := NewPMBackend(k, webSrv, dbSrv, DefaultPMParams("web"), src.Stream("n1"), webOS)
	dbBE := NewPMBackend(k, dbSrv, webSrv, DefaultPMParams("db"), src.Stream("n2"), dbOS)
	db := NewDBServer(k, dbBE, app, DefaultDBParams("pm"))
	dbc := NewDBCluster(db, nil, 0)
	paths := []PathPair{{To: PMPath(webBE), From: PMPath(dbBE)}}
	web := NewWebAppServer(k, webBE, dbc, paths, DefaultWebParams("pm"))
	fe := NewWebCluster(k, []*WebAppServer{web}, 1, nil)
	driver := NewDriver(k, app, rubis.BiddingMix(), fe, rubis.DefaultCostParams(), 50, src)
	driver.Start()
	k.Run(60 * sim.Second)
	if driver.Completed < 100 {
		t.Fatalf("completed only %d", driver.Completed)
	}
	// Inter-tier traffic crosses both physical NICs.
	if webSrv.NIC.TxBytes() <= 0 || dbSrv.NIC.RxBytes() <= 0 {
		t.Fatal("wire traffic between tiers missing")
	}
	if webSrv.CPU.TotalCycles() <= 0 || dbSrv.CPU.TotalCycles() <= 0 {
		t.Fatal("host CPUs idle")
	}
	if driver.WriteFraction() <= 0 {
		t.Fatal("bidding mix should issue writes")
	}
	counts := driver.InteractionCounts()
	if len(counts) < 5 {
		t.Fatalf("only %d interaction kinds exercised", len(counts))
	}
}

func TestWorkerPoolQueues(t *testing.T) {
	rig := newVMRig(t, 10)
	// Shrink the pool to force queueing.
	rig.web.params.Workers = 1
	for i := 0; i < 5; i++ {
		sess := &rubis.Session{UserID: 1, ItemID: 2, CategoryID: 1, ToUserID: 1}
		res, err := rig.app.Execute(rubis.ViewItem, sess, rng.NewSource(uint64(i)).Stream("x"), rubis.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		rig.web.HandleRequest(res, nil, nil, nil)
	}
	if len(rig.web.queue) != 4 {
		t.Fatalf("queue = %d, want 4 (1 active)", len(rig.web.queue))
	}
	rig.k.Run(10 * sim.Second)
	if rig.web.Served != 5 {
		t.Fatalf("served %d of 5 queued requests", rig.web.Served)
	}
	if rig.web.QueuePeak < 5 {
		t.Fatalf("QueuePeak = %d", rig.web.QueuePeak)
	}
}

func TestWebMemoryGrowsUnderLoad(t *testing.T) {
	rig := newVMRig(t, 400)
	base := rig.web.be.Mem().Get("apache")
	rig.driver.Start()
	rig.k.Run(120 * sim.Second)
	if rig.web.Growths() == 0 {
		t.Skip("no growth at this load level; jump mechanics covered by integration test")
	}
	if rig.web.be.Mem().Get("apache") <= base {
		t.Fatal("apache allocation did not grow despite Growths > 0")
	}
}

func TestDBMemoryWarmsWithReads(t *testing.T) {
	rig := newVMRig(t, 100)
	before := rig.db.be.Mem().Get("dbcache")
	rig.driver.Start()
	rig.k.Run(120 * sim.Second)
	after := rig.db.be.Mem().Get("dbcache")
	if after <= before {
		t.Fatalf("db cache did not warm: %v -> %v", before, after)
	}
}

func TestPMFlusherBatchesWrites(t *testing.T) {
	k := sim.NewKernel()
	srv := hw.NewServer(k, hw.ProLiantSpec("pm"))
	peer := hw.NewServer(k, hw.ProLiantSpec("peer"))
	os := osmodel.New(10)
	be := NewPMBackend(k, srv, peer, DefaultPMParams("web"), rng.NewSource(1).Stream("n"), os)
	doneFast := false
	be.DiskIO(1e6, true, func(any) { doneFast = true }, nil)
	k.Run(sim.Millisecond)
	if !doneFast {
		t.Fatal("buffered write should complete quickly")
	}
	if srv.Disk.WrittenBytes() != 0 {
		t.Fatal("write should still be buffered")
	}
	k.Run(10 * sim.Second) // flusher fires at 6 s
	if srv.Disk.WrittenBytes() <= 0 {
		t.Fatal("flusher never wrote back")
	}
}

func TestPMFsyncHitsDiskDirectly(t *testing.T) {
	k := sim.NewKernel()
	srv := hw.NewServer(k, hw.ProLiantSpec("pm"))
	os := osmodel.New(10)
	be := NewPMBackend(k, srv, srv, DefaultPMParams("db"), rng.NewSource(1).Stream("n"), os)
	be.Fsync(3)
	k.Run(sim.Second)
	if srv.Disk.WrittenBytes() != 3*4096 {
		t.Fatalf("fsync bytes = %v", srv.Disk.WrittenBytes())
	}
}

func TestDriverDeterminism(t *testing.T) {
	run := func() uint64 {
		rig := newVMRig(t, 80)
		rig.driver.Start()
		rig.k.Run(45 * sim.Second)
		rig.driver.Release()
		return rig.driver.Completed
	}
	// The second run draws from the first run's recycled streams.
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different request counts: %d vs %d", a, b)
	}
}
