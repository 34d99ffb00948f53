package job

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewDemandAccessors(t *testing.T) {
	d := NewDemand(64, 2048, 128)
	if d.NodeCount() != 64 {
		t.Errorf("NodeCount = %d, want 64", d.NodeCount())
	}
	if d.BB() != 2048 {
		t.Errorf("BB = %d, want 2048", d.BB())
	}
	if d.SSDPerNode() != 128 {
		t.Errorf("SSDPerNode = %d, want 128", d.SSDPerNode())
	}
	if d.TotalSSD() != 64*128 {
		t.Errorf("TotalSSD = %d, want %d", d.TotalSSD(), 64*128)
	}
}

func TestDemandAdd(t *testing.T) {
	a := NewDemand(10, 100, 5)
	b := NewDemand(3, 50, 0)
	got := a.Add(b)
	want := NewDemand(13, 150, 5)
	if !got.Equal(want) {
		t.Errorf("Add = %v, want %v", got, want)
	}
	// Add must not mutate its receiver (value semantics).
	if !a.Equal(NewDemand(10, 100, 5)) {
		t.Error("Add mutated receiver")
	}
}

func TestDemandAddCommutative(t *testing.T) {
	f := func(n1, n2 uint8, b1, b2 uint16) bool {
		a := NewDemand(int(n1), int64(b1), 0)
		b := NewDemand(int(n2), int64(b2), 0)
		return a.Add(b).Equal(b.Add(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDemandValidate(t *testing.T) {
	cases := []struct {
		name    string
		d       Demand
		wantErr string
	}{
		{"ok", NewDemand(1, 0, 0), ""},
		{"zero nodes", NewDemand(0, 10, 0), "zero nodes"},
		{"negative bb", NewDemand(1, -1, 0), "negative"},
		{"negative ssd", NewDemand(1, 0, -7), "negative"},
	}
	for _, c := range cases {
		err := c.d.Validate()
		if c.wantErr == "" && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("%s: error %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}

func TestResourceString(t *testing.T) {
	if Nodes.String() != "nodes" || BurstBufferGB.String() != "bb_gb" {
		t.Error("resource names wrong")
	}
	if !strings.Contains(Resource(42).String(), "42") {
		t.Error("unknown resource should render its number")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, -5, 10, 10, NewDemand(1, 0, 0)); err == nil {
		t.Error("negative submit accepted")
	}
	if _, err := New(1, 0, 0, 10, NewDemand(1, 0, 0)); err == nil {
		t.Error("zero runtime accepted")
	}
	if _, err := New(1, 0, 10, 0, NewDemand(1, 0, 0)); err == nil {
		t.Error("zero walltime accepted")
	}
	if _, err := New(1, 0, 10, 20, NewDemand(4, 8, 0)); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
}

// TestNewPackedMatchesNew: NewPacked builds the job New builds from the
// same demand, refuses what New refuses, and makes one allocation for a
// demand of up to three dimensions.
func TestNewPackedMatchesNew(t *testing.T) {
	for _, extra := range [][]int64{nil, {75}, {75, 3}} {
		want := MustNew(4, 10, 20, 30, NewDemandVector(8, 512, 16, extra...))
		got, err := NewPacked(4, 10, 20, 30, 8, 512, 16, extra...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("extra %v: NewPacked = %+v, want %+v", extra, got, want)
		}
	}
	if _, err := NewPacked(1, 0, 10, 10, 0, 0, 0); err == nil {
		t.Error("zero-node demand accepted")
	}
	if _, err := NewPacked(1, -5, 10, 10, 1, 0, 0); err == nil {
		t.Error("negative submit accepted")
	}
	// Set grows a packed demand out of the job's block, never past it.
	j, _ := NewPacked(1, 0, 10, 10, 2, 4, 0)
	d := j.Demand
	d.Set(NumResources, 9)
	if j.Demand.NumExtra() != 0 || d.Extra(0) != 9 || !d.Equal(NewDemandVector(2, 4, 0, 9)) {
		t.Errorf("Set on a copy of a packed demand: job %v, copy %v", j.Demand, d)
	}
	if testing.CoverMode() == "" {
		if n := testing.AllocsPerRun(100, func() { _, _ = NewPacked(1, 0, 10, 10, 2, 4, 0) }); n != 1 {
			t.Errorf("NewPacked makes %.0f allocations, want 1", n)
		}
	}
}

// TestTimesCappedAtMaxDemand: a submit time, runtime, walltime estimate
// or stage-out above MaxDemand is refused, one at it accepted.
func TestTimesCappedAtMaxDemand(t *testing.T) {
	for name, set := range map[string]func(j *Job, v int64){
		"submit time":       func(j *Job, v int64) { j.SubmitTime = v },
		"runtime":           func(j *Job, v int64) { j.Runtime = v },
		"walltime estimate": func(j *Job, v int64) { j.WalltimeEst = v },
		"stage-out":         func(j *Job, v int64) { j.StageOutSec = v },
	} {
		for _, v := range []int64{MaxDemand, MaxDemand + 1, math.MaxInt64} {
			j := MustNew(1, 0, 10, 10, NewDemand(1, 8, 0))
			set(j, v)
			if err := j.Validate(); (err == nil) != (v == MaxDemand) {
				t.Errorf("%s %d: Validate = %v", name, v, err)
			}
		}
	}
}

func TestSelfDependencyRejected(t *testing.T) {
	j := MustNew(3, 0, 10, 10, NewDemand(1, 0, 0))
	j.Deps = []int{3}
	if err := j.Validate(); err == nil {
		t.Error("self-dependency accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	j := MustNew(1, 0, 10, 10, NewDemand(1, 5, 0))
	j.Deps = []int{0}
	c := j.Clone()
	c.Deps[0] = 99
	c.Demand.Res[1] = 7
	if j.Deps[0] != 0 || j.Demand.BB() != 5 {
		t.Error("Clone shares state with original")
	}
}

func TestCloneAll(t *testing.T) {
	js := []*Job{MustNew(1, 0, 10, 10, NewDemand(1, 0, 0)), MustNew(2, 5, 10, 10, NewDemand(2, 0, 0))}
	cs := CloneAll(js)
	cs[0].SubmitTime = 42
	if js[0].SubmitTime != 0 {
		t.Error("CloneAll shares jobs")
	}
}

func TestSortBySubmitStable(t *testing.T) {
	js := []*Job{
		MustNew(3, 10, 1, 1, NewDemand(1, 0, 0)),
		MustNew(1, 5, 1, 1, NewDemand(1, 0, 0)),
		MustNew(2, 10, 1, 1, NewDemand(1, 0, 0)),
	}
	SortBySubmit(js)
	order := []int{1, 2, 3}
	for i, want := range order {
		if js[i].ID != want {
			t.Fatalf("position %d: job %d, want %d", i, js[i].ID, want)
		}
	}
}

func TestValidateWorkload(t *testing.T) {
	a := MustNew(1, 0, 10, 10, NewDemand(1, 0, 0))
	b := MustNew(2, 5, 10, 10, NewDemand(1, 0, 0))
	b.Deps = []int{1}
	if err := ValidateWorkload([]*Job{a, b}); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}

	dup := MustNew(1, 6, 10, 10, NewDemand(1, 0, 0))
	if err := ValidateWorkload([]*Job{a, dup}); err == nil {
		t.Error("duplicate IDs accepted")
	}

	c := MustNew(3, 1, 10, 10, NewDemand(1, 0, 0))
	c.Deps = []int{99}
	if err := ValidateWorkload([]*Job{a, c}); err == nil {
		t.Error("unknown dependency accepted")
	}

	// Dependency submitted later than dependent.
	late := MustNew(4, 100, 10, 10, NewDemand(1, 0, 0))
	early := MustNew(5, 1, 10, 10, NewDemand(1, 0, 0))
	early.Deps = []int{4}
	if err := ValidateWorkload([]*Job{late, early}); err == nil {
		t.Error("future dependency accepted")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Queued: "queued", InWindow: "in-window", Running: "running", Finished: "finished"} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if !strings.Contains(State(9).String(), "9") {
		t.Error("unknown state should render its number")
	}
}
