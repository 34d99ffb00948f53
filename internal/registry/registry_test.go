package registry

import (
	"reflect"
	"testing"

	"bbsched/internal/cluster"
	"bbsched/internal/core"
	"bbsched/internal/moo"
	"bbsched/internal/sched"
)

func ga() moo.GAConfig { return moo.DefaultGAConfig() }

func names(ms []sched.Method) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name()
	}
	return out
}

// TestBuiltinRoster pins the registered names to the paper's presentation
// order — the single source the CLI's -methods listing and the
// experiments rosters both draw from.
func TestBuiltinRoster(t *testing.T) {
	want := []string{
		"Baseline", "Weighted", "Weighted_CPU", "Weighted_BB",
		"Constrained_CPU", "Constrained_BB", "Constrained_SSD",
		"Bin_Packing", "BBSched",
	}
	got := Names()
	if len(got) < len(want) {
		t.Fatalf("registry has %d methods, want at least %d", len(got), len(want))
	}
	if !reflect.DeepEqual(got[:len(want)], want) {
		t.Fatalf("builtin names = %v, want %v", got[:len(want)], want)
	}
}

func TestSection4Roster(t *testing.T) {
	want := []string{
		"Baseline", "Weighted", "Weighted_CPU", "Weighted_BB",
		"Constrained_CPU", "Constrained_BB", "Bin_Packing", "BBSched",
	}
	if got := names(Roster(ga(), cluster.Config{}, false)); !reflect.DeepEqual(got, want) {
		t.Fatalf("§4 roster = %v, want %v", got, want)
	}
}

func TestSection5Roster(t *testing.T) {
	want := []string{
		"Baseline", "Weighted", "Constrained_CPU", "Constrained_BB",
		"Constrained_SSD", "Bin_Packing", "BBSched",
	}
	if got := names(Roster(ga(), cluster.Config{}, true)); !reflect.DeepEqual(got, want) {
		t.Fatalf("§5 roster = %v, want %v", got, want)
	}
}

// powerMachine is a machine with one extra resource dimension.
var powerMachine = cluster.Config{
	Nodes: 64, BurstBufferGB: 1000,
	Extra: []cluster.ResourceSpec{{Name: "power_kw", Capacity: 100}},
}

// TestRosterMatchesNewForCluster: each roster member is the method
// NewForCluster builds for the same machine, with or without extra
// dimensions and SSD objectives.
func TestRosterMatchesNewForCluster(t *testing.T) {
	for _, cfg := range []cluster.Config{{}, powerMachine} {
		for _, ssd := range []bool{false, true} {
			for _, m := range Roster(ga(), cfg, ssd) {
				want, err := NewForCluster(m.Name(), ga(), cfg, ssd)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(m, want) {
					t.Errorf("extra=%d ssd=%v: roster %s = %+v, NewForCluster builds %+v", len(cfg.Extra), ssd, m.Name(), m, want)
				}
			}
		}
	}
}

// TestSpecNamesMatchInstances: every builder constructs a method whose
// Name() equals its registered name, over either paper objective list.
func TestSpecNamesMatchInstances(t *testing.T) {
	for _, spec := range Methods() {
		for _, objs := range [][]sched.Objective{sched.TwoObjectives(), sched.FourObjectives()} {
			if got := spec.New(ga(), objs).Name(); got != spec.Name {
				t.Errorf("spec %q over %v builds %q", spec.Name, objs, got)
			}
		}
	}
}

// TestNewVariantSelection: the ssd flag selects the four-objective list,
// which sets the objective-driven methods' weights and trade-off factor,
// and every registered name resolves either way.
func TestNewVariantSelection(t *testing.T) {
	cfg := ga()
	for _, tc := range []struct {
		ssd     bool
		objs    []sched.Objective
		factor  float64
		weights []float64
	}{
		{false, sched.TwoObjectives(), 2, []float64{0.5, 0.5}},
		{true, sched.FourObjectives(), 4, []float64{0.25, 0.25, 0.25, 0.25}},
	} {
		m, err := New("BBSched", cfg, tc.ssd)
		if err != nil {
			t.Fatal(err)
		}
		if b := m.(*core.BBSched); !reflect.DeepEqual(b.Objectives, tc.objs) || b.TradeoffFactor != tc.factor || b.GA != cfg {
			t.Errorf("ssd=%v BBSched = %+v, want objectives %v, factor %v", tc.ssd, b, tc.objs, tc.factor)
		}
		m, err = New("Weighted", cfg, tc.ssd)
		if err != nil {
			t.Fatal(err)
		}
		if w := m.(*sched.Weighted); !reflect.DeepEqual(w.Objectives, tc.objs) || !reflect.DeepEqual(w.Weights, tc.weights) {
			t.Errorf("ssd=%v Weighted = %+v, want objectives %v, weights %v", tc.ssd, w, tc.objs, tc.weights)
		}
	}
	// §5-only method resolves even without the ssd flag.
	if _, err := New("Constrained_SSD", cfg, false); err != nil {
		t.Fatal(err)
	}
	if _, err := New("NoSuchMethod", cfg, false); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := NewForCluster("NoSuchMethod", cfg, powerMachine, false); err == nil {
		t.Fatal("unknown method accepted on a machine with extra dimensions")
	}
}

// TestWeightedLPOptimizesMachineObjectives: Weighted_LP is built over the
// machine's objective list like Weighted, so with ssd it scalarizes all
// four objectives on the paper's machine too, not only once an extra
// dimension exists.
func TestWeightedLPOptimizesMachineObjectives(t *testing.T) {
	for _, tc := range []struct {
		cfg  cluster.Config
		ssd  bool
		want []sched.Objective
	}{
		{cluster.Config{}, false, sched.TwoObjectives()},
		{cluster.Config{}, true, sched.FourObjectives()},
		{powerMachine, true, sched.ObjectivesFor(powerMachine, true)},
	} {
		m, err := NewForCluster("Weighted_LP", ga(), tc.cfg, tc.ssd)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(*sched.Weighted).Objectives; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("extra=%d ssd=%v: Weighted_LP optimizes %v, want %v", len(tc.cfg.Extra), tc.ssd, got, tc.want)
		}
	}
	m, err := New("Weighted_LP", ga(), true)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(*sched.Weighted).Objectives; !reflect.DeepEqual(got, sched.FourObjectives()) {
		t.Errorf("New(Weighted_LP, ssd) optimizes %v, want %v", got, sched.FourObjectives())
	}
}

// TestRegisterValidation checks the methods table: names are non-empty
// and unique and every method has a builder; and Methods hands out a
// copy.
func TestRegisterValidation(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range methods {
		if spec.Name == "" || seen[spec.Name] || spec.New == nil {
			t.Errorf("method %q has an empty or repeated name or no builder", spec.Name)
		}
		seen[spec.Name] = true
	}

	ms := Methods()
	first := ms[0].Name
	ms[0] = MethodSpec{}
	if Methods()[0].Name != first {
		t.Fatal("a caller's edit to the methods listing reached the registry's table")
	}
}

// TestRegisterSolverValidation checks the solvers table: names are
// non-empty and unique and every solver has a builder; and Solvers hands
// out a copy.
func TestRegisterSolverValidation(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range solvers {
		if spec.Name == "" || seen[spec.Name] || spec.New == nil {
			t.Errorf("solver %q has an empty or repeated name or no builder", spec.Name)
		}
		seen[spec.Name] = true
	}

	ss := Solvers()
	first := ss[0].Name
	ss[0] = SolverSpec{}
	if Solvers()[0].Name != first {
		t.Fatal("a caller's edit to the solvers listing reached the registry's table")
	}
}
