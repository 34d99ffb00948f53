package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"bbsched/internal/trace"
)

func TestNewStat(t *testing.T) {
	s := NewStat([]float64{1, 2, 3})
	if s.Mean != 2 || s.N != 3 {
		t.Fatalf("stat = %+v", s)
	}
	if math.Abs(s.Std-1) > 1e-12 {
		t.Fatalf("std = %v, want 1", s.Std)
	}
	single := NewStat([]float64{5})
	if single.Mean != 5 || single.Std != 0 {
		t.Fatalf("single-sample stat = %+v", single)
	}
	if empty := NewStat(nil); empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty stat = %+v", empty)
	}
	if got := NewStat([]float64{1, 2}).String(); !strings.Contains(got, "±") {
		t.Fatalf("String = %q", got)
	}
}

func TestReplicateRejectsNoSeeds(t *testing.T) {
	if _, err := Replicate(fastOptions(), nil, nil); err == nil {
		t.Fatal("no seeds accepted")
	}
}

func TestReplicateSmall(t *testing.T) {
	o := fastOptions()
	o.Jobs = 50
	seeds := []uint64{1, 2}
	if testing.Short() {
		// Reduced workload and seed count; the structural checks still run.
		o.Jobs = 20
		seeds = []uint64{1}
	}
	_, theta := o.systems()
	rows, err := Replicate(o, func(seed uint64) trace.Workload {
		w := trace.Generate(trace.GenConfig{System: theta, Jobs: o.Jobs, Seed: seed})
		w.Name = "Theta-rep"
		return w
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 methods", len(rows))
	}
	for _, r := range rows {
		if r.NodeUsage.N != len(seeds) {
			t.Fatalf("%s: N = %d, want %d", r.Method, r.NodeUsage.N, len(seeds))
		}
		if r.NodeUsage.Mean <= 0 || r.NodeUsage.Mean > 1 {
			t.Fatalf("%s: node usage mean = %v", r.Method, r.NodeUsage.Mean)
		}
	}
}

// TestReplicateWorkerCountInvariant: Replicate sums each statistic's
// samples in seed order, so one worker and two give the same floats bit
// for bit. Three seeds, because two samples sum alike in either order.
func TestReplicateWorkerCountInvariant(t *testing.T) {
	o := fastOptions()
	o.Jobs = 20
	_, theta := o.systems()
	build := func(seed uint64) trace.Workload {
		w := trace.Generate(trace.GenConfig{System: theta, Jobs: o.Jobs, Seed: seed})
		w.Name = "Theta-rep"
		return w
	}
	var rows [2][]ReplicatedResult
	for i, workers := range []int{1, 2} {
		o.Parallelism = workers
		var err error
		if rows[i], err = Replicate(o, build, []uint64{5, 6, 7}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(rows[0], rows[1]) {
		t.Fatalf("Replicate differs between one and two workers:\n%+v\n%+v", rows[0], rows[1])
	}
}

func TestReplicateS4Renders(t *testing.T) {
	o := fastOptions()
	o.Jobs = 40
	seeds := []uint64{3, 4}
	if testing.Short() {
		o.Jobs = 15
		seeds = []uint64{3}
	}
	out, err := ReplicateS4(o, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "BBSched") || !strings.Contains(out, "±") {
		t.Fatalf("output incomplete:\n%s", out)
	}
}
