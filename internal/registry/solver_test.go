package registry

import (
	"testing"

	"bbsched/internal/cluster"
	"bbsched/internal/lp"
	"bbsched/internal/sched"
)

// TestSolverRoster checks the built-in backend registry and name-based
// instantiation.
func TestSolverRoster(t *testing.T) {
	names := SolverNames()
	if len(names) < 2 || names[0] != "ga" || names[1] != "lp" {
		t.Fatalf("solver roster = %v, want [ga lp ...]", names)
	}
	for _, name := range names {
		sv, err := NewSolver(name, ga())
		if err != nil {
			t.Fatal(err)
		}
		if sv.Name() != name {
			t.Errorf("solver %q reports name %q", name, sv.Name())
		}
	}
	if _, err := NewSolver("nope", ga()); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

// TestLPMethodVariants checks the registered LP-backed method variants:
// instantiable by name, reporting the lp backend, outside the golden
// paper rosters.
func TestLPMethodVariants(t *testing.T) {
	for _, name := range []string{"Weighted_LP", "Constrained_LP"} {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if spec.Solver != "lp" {
			t.Errorf("%s spec solver = %q, want lp", name, spec.Solver)
		}
		if spec.Section4 || spec.Section5 {
			t.Errorf("%s joined a paper roster; the golden §4/§5 rosters must stay MOGA-only", name)
		}
		m, err := New(name, ga(), false)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Errorf("method name = %q, want %q", m.Name(), name)
		}
		if got := sched.SolverNameOf(m); got != "lp" {
			t.Errorf("%s backend = %q, want lp", name, got)
		}
	}
}

// TestApplySolver covers the by-name backend attachment used by the
// bbsim -solver flag.
func TestApplySolver(t *testing.T) {
	m, err := New("Weighted", ga(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplySolver(m, "lp", ga()); err != nil {
		t.Fatal(err)
	}
	if got := sched.SolverNameOf(m); got != "lp" {
		t.Errorf("backend after ApplySolver = %q, want lp", got)
	}
	if err := ApplySolver(m, "nope", ga()); err == nil {
		t.Error("unknown solver name accepted")
	}
	base, err := New("Baseline", ga(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplySolver(base, "lp", ga()); err == nil {
		t.Error("fixed heuristic accepted a solver override")
	}
	bb, err := New("BBSched", ga(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplySolver(bb, "lp", ga()); err == nil {
		t.Error("BBSched accepted the scalar-only lp backend (veto bypassed)")
	}
	if err := ApplySolver(bb, "ga", ga()); err != nil {
		t.Errorf("BBSched rejected the ga backend: %v", err)
	}
	// The §5 four-objective Weighted build scalarizes SSD waste, which
	// now linearizes at problem build (smallest-eligible-class-first
	// waste columns): the lp backend is accepted instead of vetoed.
	wSSD, err := New("Weighted", ga(), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplySolver(wSSD, "lp", ga()); err != nil {
		t.Errorf("SSD-waste Weighted build rejected the lp backend: %v", err)
	}
	// Weighted_LP's dimension-generated build keeps every canonical
	// objective (the filter guards only future placement-only terms), so
	// it stays LP-solvable on SSD machines.
	spec, _ := Lookup("Weighted_LP")
	mDim := spec.NewDim(ga(), sched.ObjectivesFor(cluster.Config{
		Nodes: 64, BurstBufferGB: 1000,
		Extra: []cluster.ResourceSpec{{Name: "power_kw", Capacity: 100}},
	}, true))
	if v, ok := mDim.(sched.SolverVetoer); ok {
		if err := v.VetoSolver(lp.New(lp.DefaultConfig())); err != nil {
			t.Errorf("Weighted_LP NewDim build rejects its own backend: %v", err)
		}
	}
}
