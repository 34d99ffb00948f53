package cluster

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"bbsched/internal/job"
	"bbsched/internal/rng"
)

func simpleCfg() Config {
	return Config{Name: "test", Nodes: 100, BurstBufferGB: 1000}
}

func ssdCfg() Config {
	return Config{
		Name: "ssd", Nodes: 10, BurstBufferGB: 100,
		SSDClasses: []SSDClass{{CapacityGB: 256, Count: 5}, {CapacityGB: 128, Count: 5}},
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"simple", simpleCfg(), true},
		{"ssd", ssdCfg(), true},
		{"zero nodes", Config{Nodes: 0}, false},
		{"negative bb", Config{Nodes: 1, BurstBufferGB: -1}, false},
		{"class mismatch", Config{Nodes: 10, SSDClasses: []SSDClass{{128, 3}}}, false},
		{"negative capacity", Config{Nodes: 1, SSDClasses: []SSDClass{{-1, 1}}}, false},
		{"zero class count", Config{Nodes: 1, SSDClasses: []SSDClass{{128, 0}}}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		}
	}
}

func TestAllocateRelease(t *testing.T) {
	c := MustNew(simpleCfg())
	j := job.MustNew(1, 0, 10, 10, job.NewDemand(40, 600, 0))
	a, err := c.Allocate(j)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalNodes() != 40 || a.BB != 600 {
		t.Fatalf("allocation = %+v", a)
	}
	if c.FreeNodes() != 60 || c.FreeBB() != 400 {
		t.Fatalf("free = %d nodes, %d bb", c.FreeNodes(), c.FreeBB())
	}
	if c.UsedNodes() != 40 || c.UsedBB() != 600 {
		t.Fatalf("used = %d nodes, %d bb", c.UsedNodes(), c.UsedBB())
	}
	if err := c.CheckInvariants(slices.Values([]Allocation{a})); err != nil {
		t.Fatal(err)
	}
	c.Release(&a)
	if c.FreeNodes() != 100 || c.FreeBB() != 1000 {
		t.Fatal("release did not restore resources")
	}
	if err := c.CheckInvariants(slices.Values([]Allocation{a})); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseEmptiesAllocation: the caller holds the allocation, so
// Release empties it — a second Release returns nothing, and the node
// buffer it recycled is handed out once, not twice.
func TestReleaseEmptiesAllocation(t *testing.T) {
	c := MustNew(ssdCfg())
	a, err := c.Allocate(job.MustNew(1, 0, 10, 10, job.NewDemand(4, 60, 64)))
	if err != nil {
		t.Fatal(err)
	}
	c.Release(&a)
	if a.TotalNodes() != 0 || a.BB != 0 || a.NodesByClass != nil {
		t.Fatalf("released allocation still holds %+v", a)
	}
	c.Release(&a)
	if c.FreeNodes() != 10 || c.FreeBB() != 100 {
		t.Fatalf("second release freed more: %d nodes, %d GB", c.FreeNodes(), c.FreeBB())
	}
	b, _ := c.Allocate(job.MustNew(2, 0, 10, 10, job.NewDemand(1, 0, 0)))
	d, _ := c.Allocate(job.MustNew(3, 0, 10, 10, job.NewDemand(1, 0, 0)))
	if &b.NodesByClass[0] == &d.NodesByClass[0] {
		t.Fatal("two live allocations share one recycled node buffer")
	}
	if err := c.CheckInvariants(slices.Values([]Allocation{a, b, d})); err != nil {
		t.Fatal(err)
	}
}

func TestNoFitNodes(t *testing.T) {
	c := MustNew(simpleCfg())
	j := job.MustNew(1, 0, 10, 10, job.NewDemand(101, 0, 0))
	if _, err := c.Allocate(j); !errors.Is(err, ErrNoFit) {
		t.Fatalf("err = %v, want ErrNoFit", err)
	}
	if c.FreeNodes() != 100 {
		t.Fatal("failed allocation leaked nodes")
	}
}

func TestNoFitBB(t *testing.T) {
	c := MustNew(simpleCfg())
	j := job.MustNew(1, 0, 10, 10, job.NewDemand(1, 1001, 0))
	if _, err := c.Allocate(j); !errors.Is(err, ErrNoFit) {
		t.Fatalf("err = %v, want ErrNoFit", err)
	}
	if c.FreeBB() != 1000 {
		t.Fatal("failed allocation leaked burst buffer")
	}
}

func TestSSDPlacementPrefersSmallClass(t *testing.T) {
	c := MustNew(ssdCfg())
	// A small-SSD request must land on 128 GB nodes first.
	j := job.MustNew(1, 0, 10, 10, job.NewDemand(3, 0, 64))
	a, err := c.Allocate(j)
	if err != nil {
		t.Fatal(err)
	}
	// Classes are normalized ascending: index 0 is the 128 GB class.
	if a.NodesByClass[0] != 3 || a.NodesByClass[1] != 0 {
		t.Fatalf("placement = %v, want all nodes from 128GB class", a.NodesByClass)
	}
	if a.WastedSSD != 3*(128-64) {
		t.Fatalf("wasted SSD = %d, want %d", a.WastedSSD, 3*(128-64))
	}
}

func TestSSDPlacementSpillsToLargeClass(t *testing.T) {
	c := MustNew(ssdCfg())
	j := job.MustNew(1, 0, 10, 10, job.NewDemand(7, 0, 100))
	a, err := c.Allocate(j)
	if err != nil {
		t.Fatal(err)
	}
	if a.NodesByClass[0] != 5 || a.NodesByClass[1] != 2 {
		t.Fatalf("placement = %v, want [5 2]", a.NodesByClass)
	}
	wantWaste := int64(5*(128-100) + 2*(256-100))
	if a.WastedSSD != wantWaste {
		t.Fatalf("wasted SSD = %d, want %d", a.WastedSSD, wantWaste)
	}
}

func TestSSDLargeRequestNeedsLargeNodes(t *testing.T) {
	c := MustNew(ssdCfg())
	// >128 GB per node: only the five 256 GB nodes qualify.
	ok := job.MustNew(1, 0, 10, 10, job.NewDemand(5, 0, 200))
	a1, err := c.Allocate(ok)
	if err != nil {
		t.Fatal(err)
	}
	toobig := job.MustNew(2, 0, 10, 10, job.NewDemand(1, 0, 200))
	if _, err := c.Allocate(toobig); !errors.Is(err, ErrNoFit) {
		t.Fatalf("err = %v, want ErrNoFit (256GB class exhausted)", err)
	}
	// But a small request still fits on the remaining 128 GB nodes.
	small := job.MustNew(3, 0, 10, 10, job.NewDemand(5, 0, 64))
	a3, err := c.Allocate(small)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(slices.Values([]Allocation{a1, a3})); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIndependence(t *testing.T) {
	c := MustNew(simpleCfg())
	s := c.Snapshot()
	if _, err := s.Alloc(job.NewDemand(50, 500, 0)); err != nil {
		t.Fatal(err)
	}
	if c.FreeNodes() != 100 || c.FreeBB() != 1000 {
		t.Fatal("snapshot allocation mutated live cluster")
	}
	if s.FreeNodes() != 50 || s.FreeBB != 500 {
		t.Fatal("snapshot not mutated")
	}
}

func TestSnapshotCanFitPure(t *testing.T) {
	c := MustNew(simpleCfg())
	s := c.Snapshot()
	d := job.NewDemand(10, 10, 0)
	before := s.FreeNodes()
	if !s.CanFit(d) {
		t.Fatal("CanFit false for fitting demand")
	}
	if s.FreeNodes() != before {
		t.Fatal("CanFit mutated snapshot")
	}
}

func TestSnapshotAllocFailureLeavesStateIntact(t *testing.T) {
	c := MustNew(ssdCfg())
	s := c.Snapshot()
	// 8 nodes needing >128GB SSD: only 5 such nodes exist → must fail cleanly.
	if _, err := s.Alloc(job.NewDemand(8, 0, 200)); !errors.Is(err, ErrNoFit) {
		t.Fatalf("err = %v, want ErrNoFit", err)
	}
	if s.FreeNodes() != 10 || s.FreeBB != 100 {
		t.Fatal("failed snapshot alloc mutated state")
	}
}

func TestZeroNodeDemandRejected(t *testing.T) {
	c := MustNew(simpleCfg())
	s := c.Snapshot()
	if _, err := s.Alloc(job.Demand{}); err == nil {
		t.Fatal("zero-node demand accepted")
	}
}

// TestConservationProperty allocates and releases random jobs and checks the
// conservation invariant plus full recovery after draining.
func TestConservationProperty(t *testing.T) {
	r := rng.New(1234)
	f := func(seed uint16) bool {
		s := r.SplitIndex(uint64(seed))
		c := MustNew(Config{
			Name: "prop", Nodes: 64, BurstBufferGB: 512,
			SSDClasses: []SSDClass{{128, 32}, {256, 32}},
		})
		var live []Allocation
		nextID := 0
		for step := 0; step < 200; step++ {
			if len(live) > 0 && s.Bool(0.4) {
				idx := s.Intn(len(live))
				c.Release(&live[idx])
				live = append(live[:idx], live[idx+1:]...)
			} else {
				var ssd int64
				if s.Bool(0.5) {
					ssd = s.Int63n(257)
				}
				d := job.NewDemand(1+s.Intn(32), s.Int63n(300), ssd)
				j := job.MustNew(nextID, 0, 10, 10, d)
				nextID++
				if a, err := c.Allocate(j); err == nil {
					live = append(live, a)
				} else if !errors.Is(err, ErrNoFit) {
					t.Logf("allocate: %v", err)
					return false
				}
			}
			if err := c.CheckInvariants(slices.Values(live)); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		for i := range live {
			c.Release(&live[i])
		}
		return c.FreeNodes() == 64 && c.FreeBB() == 512
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCanFitMatchesAllocate(t *testing.T) {
	r := rng.New(77)
	c := MustNew(ssdCfg())
	// Partially fill.
	c.Allocate(job.MustNew(0, 0, 10, 10, job.NewDemand(4, 40, 128)))
	for i := 1; i < 300; i++ {
		var ssd int64
		if r.Bool(0.5) {
			ssd = r.Int63n(300)
		}
		d := job.NewDemand(1+r.Intn(12), r.Int63n(120), ssd)
		fit := c.CanFit(d)
		j := job.MustNew(i, 0, 10, 10, d)
		a, err := c.Allocate(j)
		if fit != (err == nil) {
			t.Fatalf("CanFit=%v but Allocate err=%v for %v", fit, err, d)
		}
		if err == nil {
			c.Release(&a)
		}
	}
}

func TestSnapshotCopyFromReusesStorage(t *testing.T) {
	c := MustNew(Config{
		Name: "cp", Nodes: 10, BurstBufferGB: 100,
		SSDClasses: []SSDClass{{CapacityGB: 128, Count: 4}, {CapacityGB: 256, Count: 6}},
	})
	src := c.Snapshot()
	var dst Snapshot
	dst.CopyFrom(src)
	if dst.FreeBB != src.FreeBB || dst.FreeNodes() != src.FreeNodes() {
		t.Fatalf("CopyFrom mismatch: %+v vs %+v", dst, src)
	}
	// Mutating the copy must not touch the source.
	if _, err := dst.Alloc(job.NewDemand(3, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if src.FreeNodes() != 10 || src.FreeBB != 100 {
		t.Fatal("CopyFrom shares mutable storage with source")
	}
	// Reusing the same destination must not reallocate its class slice.
	before := &dst.FreeByClass[0]
	dst.CopyFrom(src)
	if &dst.FreeByClass[0] != before {
		t.Fatal("CopyFrom reallocated storage on reuse")
	}
	if dst.FreeNodes() != 10 || dst.FreeBB != 100 {
		t.Fatal("second CopyFrom did not restore state")
	}
}

func TestSnapshotAllocIntoMatchesAlloc(t *testing.T) {
	cfg := Config{
		Name: "ai", Nodes: 6, BurstBufferGB: 50,
		SSDClasses: []SSDClass{{CapacityGB: 128, Count: 3}, {CapacityGB: 256, Count: 3}},
	}
	d := job.NewDemand(4, 10, 100)

	a := MustNew(cfg).Snapshot()
	wantP, wantErr := a.Alloc(d)

	b := MustNew(cfg).Snapshot()
	buf := make([]int, b.NumClasses())
	gotP, gotErr := b.AllocInto(d, buf)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("errors diverge: %v vs %v", wantErr, gotErr)
	}
	if gotP.WastedSSD != wantP.WastedSSD {
		t.Fatalf("wasted ssd %d, want %d", gotP.WastedSSD, wantP.WastedSSD)
	}
	for i := range wantP.NodesByClass {
		if gotP.NodesByClass[i] != wantP.NodesByClass[i] {
			t.Fatalf("placement %v, want %v", gotP.NodesByClass, wantP.NodesByClass)
		}
	}
	if &gotP.NodesByClass[0] != &buf[0] {
		t.Fatal("AllocInto did not use the provided buffer")
	}
	if a.FreeNodes() != b.FreeNodes() || a.FreeBB != b.FreeBB {
		t.Fatal("post-alloc snapshots diverge")
	}
	// A stale non-zero buffer must not leak into the placement.
	c := MustNew(cfg).Snapshot()
	for i := range buf {
		buf[i] = 99
	}
	p3, err := c.AllocInto(job.NewDemand(1, 0, 0), buf)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range p3.NodesByClass {
		total += n
	}
	if total != 1 {
		t.Fatalf("stale buffer leaked into placement: %v", p3.NodesByClass)
	}
}
