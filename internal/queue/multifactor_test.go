package queue

import (
	"testing"
)

func TestMultifactorAgeGrowsAndSaturates(t *testing.T) {
	m := Multifactor{MaxAgeSec: 1000}
	j := mkJob(1, 0, 10, 100)
	p1 := priorityOf(m, j, 100)
	p2 := priorityOf(m, j, 900)
	if p2 <= p1 {
		t.Fatalf("age factor not growing: %v then %v", p1, p2)
	}
	atMax := priorityOf(m, j, 1000)
	beyond := priorityOf(m, j, 50000)
	if beyond != atMax {
		t.Fatalf("age factor not saturating: %v vs %v", beyond, atMax)
	}
	if priorityOf(m, j, -50) != 0+priorityOf(m, j, 0) {
		t.Fatal("negative wait should clamp to zero age")
	}
}

func TestMultifactorSizeFactor(t *testing.T) {
	m := Multifactor{MachineNodes: 100}
	small := mkJob(1, 0, 1, 100)
	big := mkJob(2, 0, 50, 100)
	if priorityOf(m, big, 0) <= priorityOf(m, small, 0) {
		t.Fatal("larger job should score higher at equal age")
	}
}

func TestMultifactorWeights(t *testing.T) {
	// With zero size weight... weights fall back to defaults when zero,
	// so use explicit tiny weights to isolate terms.
	ageOnly := Multifactor{AgeWeight: 100, SizeWeight: 1e-9, MaxAgeSec: 100}
	big := mkJob(1, 0, 1000, 100)
	smallOld := mkJob(2, 0, 1, 100)
	if priorityOf(ageOnly, big, 50) > priorityOf(ageOnly, smallOld, 50)+1e-3 {
		t.Fatal("size dominated despite negligible size weight")
	}
}

func TestMultifactorInQueue(t *testing.T) {
	q := New(Multifactor{MachineNodes: 100, MaxAgeSec: 1000})
	q.Add(mkJob(1, 500, 90, 100)) // big, young
	q.Add(mkJob(2, 0, 1, 100))    // small, old
	// Default weights: age 1000, size 100. Old job: age=0.5→500 + 1;
	// young big job: age≈0 + 90. Old small job wins.
	if got := q.Sorted(500); got[0].ID != 2 {
		t.Fatalf("order = %v, want old job first", ids(got))
	}
}

func TestByNameMultifactor(t *testing.T) {
	p, err := ByName("Multifactor")
	if err != nil || p.Name() != "Multifactor" {
		t.Fatalf("ByName: %v, %v", p, err)
	}
}
