package cluster

import (
	"errors"
	"slices"
	"testing"

	"bbsched/internal/job"
)

func TestReleaseNodesKeepsBB(t *testing.T) {
	c := MustNew(simpleCfg())
	j := job.MustNew(1, 0, 10, 10, job.NewDemand(40, 600, 0))
	a, err := c.Allocate(j)
	if err != nil {
		t.Fatal(err)
	}
	c.ReleaseNodes(&a)
	if c.FreeNodes() != 100 {
		t.Fatalf("free nodes = %d, want all back", c.FreeNodes())
	}
	if c.FreeBB() != 400 {
		t.Fatalf("free bb = %d, want 400 (still held)", c.FreeBB())
	}
	if err := c.CheckInvariants(slices.Values([]Allocation{a})); err != nil {
		t.Fatal(err)
	}
	// Finish the job: BB comes back.
	c.Release(&a)
	if c.FreeBB() != 1000 || a.BB != 0 {
		t.Fatal("full release did not restore BB")
	}
}

func TestReleaseNodesIdempotentOnNodes(t *testing.T) {
	c := MustNew(simpleCfg())
	j := job.MustNew(1, 0, 10, 10, job.NewDemand(10, 100, 0))
	a, _ := c.Allocate(j)
	c.ReleaseNodes(&a)
	c.ReleaseNodes(&a)
	if c.FreeNodes() != 100 {
		t.Fatalf("double ReleaseNodes corrupted node count: %d", c.FreeNodes())
	}
	if err := c.CheckInvariants(slices.Values([]Allocation{a})); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseNodesSSDClasses(t *testing.T) {
	c := MustNew(ssdCfg())
	j := job.MustNew(1, 0, 10, 10, job.NewDemand(7, 50, 100))
	a, err := c.Allocate(j)
	if err != nil {
		t.Fatal(err)
	}
	c.ReleaseNodes(&a)
	if c.FreeNodes() != 10 {
		t.Fatalf("free nodes = %d", c.FreeNodes())
	}
	// Another SSD job can use the released nodes while BB is held.
	j2 := job.MustNew(2, 0, 10, 10, job.NewDemand(7, 0, 100))
	a2, err := c.Allocate(j2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(slices.Values([]Allocation{a, a2})); err != nil {
		t.Fatal(err)
	}
}

func TestReserveBB(t *testing.T) {
	c := MustNew(simpleCfg())
	r, err := c.ReserveBB(300)
	if err != nil {
		t.Fatal(err)
	}
	if c.FreeBB() != 700 || c.FreeNodes() != 100 || r.BB != 300 {
		t.Fatalf("after reservation: %d bb, %d nodes, reservation %+v", c.FreeBB(), c.FreeNodes(), r)
	}
	if err := c.CheckInvariants(slices.Values([]Allocation{r})); err != nil {
		t.Fatal(err)
	}
	// Over-reservation fails cleanly.
	if _, err := c.ReserveBB(800); !errors.Is(err, ErrNoFit) {
		t.Fatalf("over-reservation err = %v", err)
	}
	// Negative amount rejected.
	if _, err := c.ReserveBB(-5); err == nil {
		t.Fatal("negative reservation accepted")
	}
	if err := c.CheckInvariants(slices.Values([]Allocation{r})); err != nil {
		t.Fatal(err)
	}
	// Reservations release like jobs.
	c.Release(&r)
	if c.FreeBB() != 1000 {
		t.Fatal("reservation release did not restore BB")
	}
}

func TestReserveBBConstrainsJobs(t *testing.T) {
	c := MustNew(simpleCfg())
	c.ReserveBB(900)
	big := job.MustNew(1, 0, 10, 10, job.NewDemand(1, 200, 0))
	if _, err := c.Allocate(big); !errors.Is(err, ErrNoFit) {
		t.Fatalf("err = %v, want ErrNoFit under reservation", err)
	}
	small := job.MustNew(2, 0, 10, 10, job.NewDemand(1, 100, 0))
	if _, err := c.Allocate(small); err != nil {
		t.Fatal(err)
	}
}
