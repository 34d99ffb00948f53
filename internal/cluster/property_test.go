package cluster

import (
	"fmt"
	"iter"
	"math/rand"
	"testing"

	"bbsched/internal/job"
)

// The property suite drives random allocate/release/stage-out sequences
// over randomly shaped machines — 1–3 SSD classes, 0–3 extra resource
// dimensions — and checks after every step that
//
//   - free + used == capacity in every dimension (CheckInvariants),
//   - no dimension ever goes negative,
//   - CanFit agrees with Allocate success,
//   - Snapshot/CopyFrom round-trip the free state exactly.
//
// 1000 iterations; runs under -race in CI.

const propertyIterations = 1000

// randomConfig draws a machine shape.
func randomConfig(r *rand.Rand, iter int) Config {
	cfg := Config{Name: fmt.Sprintf("prop-%d", iter)}
	switch r.Intn(3) {
	case 0: // homogeneous, no SSDs
		cfg.Nodes = 1 + r.Intn(32)
	case 1: // one SSD class
		cfg.Nodes = 1 + r.Intn(32)
		cfg.SSDClasses = []SSDClass{{CapacityGB: int64(r.Intn(256)), Count: cfg.Nodes}}
	default: // heterogeneous SSD classes
		a, b := 1+r.Intn(16), 1+r.Intn(16)
		cfg.Nodes = a + b
		cfg.SSDClasses = []SSDClass{
			{CapacityGB: int64(64 + r.Intn(64)), Count: a},
			{CapacityGB: int64(192 + r.Intn(64)), Count: b},
		}
	}
	cfg.BurstBufferGB = int64(r.Intn(2000))
	for k, n := 0, r.Intn(4); k < n; k++ {
		cfg.Extra = append(cfg.Extra, ResourceSpec{
			Name:     fmt.Sprintf("res%d", k),
			Capacity: int64(r.Intn(500)),
			Unit:     "u",
		})
	}
	return cfg
}

// randomDemand draws a demand that may or may not fit cfg.
func randomDemand(r *rand.Rand, cfg Config) job.Demand {
	nodes := 1 + r.Intn(cfg.Nodes+2) // occasionally wider than the machine
	bb := int64(0)
	if cfg.BurstBufferGB > 0 && r.Intn(2) == 0 {
		bb = r.Int63n(cfg.BurstBufferGB + 10)
	}
	ssd := int64(0)
	if len(cfg.SSDClasses) > 0 && r.Intn(2) == 0 {
		ssd = r.Int63n(300)
	}
	extras := make([]int64, len(cfg.Extra))
	for k, spec := range cfg.Extra {
		if r.Intn(2) == 0 {
			extras[k] = r.Int63n(spec.Capacity + 5)
		}
	}
	return job.NewDemandVector(nodes, bb, ssd, extras...)
}

// checkNonNegative asserts no free dimension is negative.
func checkNonNegative(t *testing.T, c *Cluster) {
	t.Helper()
	snap := c.Snapshot()
	if snap.FreeBB < 0 {
		t.Fatalf("negative free burst buffer %d", snap.FreeBB)
	}
	for i, n := range snap.FreeByClass {
		if n < 0 {
			t.Fatalf("negative free node count %d in class %d", n, i)
		}
	}
	for k, v := range snap.FreeExtra {
		if v < 0 {
			t.Fatalf("negative free extra dimension %d: %d", k, v)
		}
	}
}

// checkSnapshotRoundTrip asserts Clone and CopyFrom reproduce the free
// state exactly, into both fresh and dirty destinations; held yields the
// live allocations.
func checkSnapshotRoundTrip(t *testing.T, c *Cluster, dirty *Snapshot, held iter.Seq[Allocation]) {
	t.Helper()
	snap := c.Snapshot()
	clone := snap.Clone()
	dirty.CopyFrom(snap)
	for _, got := range []Snapshot{clone, *dirty} {
		if got.FreeBB != snap.FreeBB {
			t.Fatalf("round-trip FreeBB = %d, want %d", got.FreeBB, snap.FreeBB)
		}
		if len(got.FreeByClass) != len(snap.FreeByClass) {
			t.Fatalf("round-trip classes = %d, want %d", len(got.FreeByClass), len(snap.FreeByClass))
		}
		for i := range snap.FreeByClass {
			if got.FreeByClass[i] != snap.FreeByClass[i] {
				t.Fatalf("round-trip class %d = %d, want %d", i, got.FreeByClass[i], snap.FreeByClass[i])
			}
		}
		if len(got.FreeExtra) != len(snap.FreeExtra) {
			t.Fatalf("round-trip extras = %d, want %d", len(got.FreeExtra), len(snap.FreeExtra))
		}
		for k := range snap.FreeExtra {
			if got.FreeExtra[k] != snap.FreeExtra[k] {
				t.Fatalf("round-trip extra %d = %d, want %d", k, got.FreeExtra[k], snap.FreeExtra[k])
			}
		}
	}
	// Mutating the copies must not leak back into the live state.
	clone.FreeBB = -999
	for i := range clone.FreeByClass {
		clone.FreeByClass[i] = -999
	}
	for k := range clone.FreeExtra {
		clone.FreeExtra[k] = -999
	}
	if err := c.CheckInvariants(held); err != nil {
		t.Fatalf("mutating a clone corrupted live state: %v", err)
	}
}

func TestClusterPropertyRandomWorkloads(t *testing.T) {
	r := rand.New(rand.NewSource(20260728))
	var dirty Snapshot
	for iter := 0; iter < propertyIterations; iter++ {
		cfg := randomConfig(r, iter)
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}

		// The test holds every allocation it takes, as the simulator does,
		// and hands them all to CheckInvariants.
		type live struct {
			a       Allocation
			staging bool
		}
		var running []live
		var reserved []Allocation
		held := func(yield func(Allocation) bool) {
			for _, l := range running {
				if !yield(l.a) {
					return
				}
			}
			for _, r := range reserved {
				if !yield(r) {
					return
				}
			}
		}
		nextID := 0

		steps := 5 + r.Intn(40)
		for s := 0; s < steps; s++ {
			switch op := r.Intn(10); {
			case op < 5: // allocate
				d := randomDemand(r, cfg)
				j := &job.Job{ID: nextID, Demand: d}
				canFit := c.CanFit(d)
				a, err := c.Allocate(j)
				if canFit != (err == nil) {
					t.Fatalf("iter %d step %d: CanFit=%v but Allocate err=%v (demand %v)", iter, s, canFit, err, d)
				}
				if err == nil {
					if got := a.TotalNodes(); got != d.NodeCount() {
						t.Fatalf("iter %d step %d: allocation has %d nodes, want %d", iter, s, got, d.NodeCount())
					}
					running = append(running, live{a: a})
					nextID++
				}
			case op < 7 && len(running) > 0: // full release
				k := r.Intn(len(running))
				c.Release(&running[k].a)
				running = append(running[:k], running[k+1:]...)
			case op < 9 && len(running) > 0: // stage-out: nodes first, then the rest
				k := r.Intn(len(running))
				if !running[k].staging {
					c.ReleaseNodes(&running[k].a)
					running[k].staging = true
				} else {
					c.Release(&running[k].a)
					running = append(running[:k], running[k+1:]...)
				}
			default: // persistent reservation
				if c.FreeBB() > 0 && r.Intn(4) == 0 {
					amount := r.Int63n(c.FreeBB() + 1)
					res, err := c.ReserveBB(amount)
					if err != nil {
						t.Fatalf("iter %d step %d: reserve: %v", iter, s, err)
					}
					reserved = append(reserved, res)
				}
			}

			if err := c.CheckInvariants(held); err != nil {
				t.Fatalf("iter %d step %d: %v", iter, s, err)
			}
			checkNonNegative(t, c)
		}
		checkSnapshotRoundTrip(t, c, &dirty, held)

		// Drain everything; the machine must come back to full capacity.
		for i := range running {
			c.Release(&running[i].a)
		}
		for i := range reserved {
			c.Release(&reserved[i])
		}
		if err := c.CheckInvariants(held); err != nil {
			t.Fatalf("iter %d after drain: %v", iter, err)
		}
		if c.FreeNodes() != cfg.Nodes || c.FreeBB() != cfg.BurstBufferGB {
			t.Fatalf("iter %d after drain: %d nodes, %d GB free", iter, c.FreeNodes(), c.FreeBB())
		}
	}
}

// TestSnapshotAllocReleaseSymmetry checks that a snapshot Alloc consumes
// exactly the demand in every pool dimension.
func TestSnapshotAllocReleaseSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < propertyIterations; iter++ {
		cfg := randomConfig(r, iter)
		c := MustNew(cfg)
		snap := c.Snapshot()
		before := snap.Clone()
		d := randomDemand(r, cfg)
		if !snap.CanFit(d) {
			continue
		}
		if _, err := snap.Alloc(d); err != nil {
			t.Fatalf("iter %d: CanFit said yes, Alloc failed: %v", iter, err)
		}
		if got, want := before.FreeNodes()-snap.FreeNodes(), d.NodeCount(); got != want {
			t.Fatalf("iter %d: alloc consumed %d nodes, want %d", iter, got, want)
		}
		if got, want := before.FreeBB-snap.FreeBB, d.BB(); got != want {
			t.Fatalf("iter %d: alloc consumed %d GB BB, want %d", iter, got, want)
		}
		for k := range snap.FreeExtra {
			if got, want := before.FreeExtra[k]-snap.FreeExtra[k], d.Extra(k); got != want {
				t.Fatalf("iter %d: alloc consumed %d of extra %d, want %d", iter, got, want, k)
			}
		}
	}
}

// TestCanFitMonotoneUnderAlloc pins the premise EASY backfill's pruning
// rests on: allocations only shrink a snapshot, and CanFit is monotone in
// free resources, so a demand that fits after an Alloc fitted before it —
// equivalently, a demand rejected now stays rejected however many jobs
// are started first.
func TestCanFitMonotoneUnderAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < propertyIterations; iter++ {
		cfg := randomConfig(r, iter)
		snap := MustNew(cfg).Snapshot()
		probes := make([]job.Demand, 16)
		for i := range probes {
			probes[i] = randomDemand(r, cfg)
		}
		for step := 0; step < 8; step++ {
			before := snap.Clone()
			if _, err := snap.Alloc(randomDemand(r, cfg)); err != nil {
				continue
			}
			for _, d := range probes {
				if snap.CanFit(d) && !before.CanFit(d) {
					t.Fatalf("iter %d step %d: %+v fits %+v but not the larger %+v", iter, step, d, snap, before)
				}
			}
		}
	}
}
