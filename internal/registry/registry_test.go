package registry

import (
	"reflect"
	"testing"

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
	if got := names(Section4(ga())); !reflect.DeepEqual(got, want) {
		t.Fatalf("§4 roster = %v, want %v", got, want)
	}
}

func TestSection5Roster(t *testing.T) {
	want := []string{
		"Baseline", "Weighted", "Constrained_CPU", "Constrained_BB",
		"Constrained_SSD", "Bin_Packing", "BBSched",
	}
	if got := names(Section5(ga())); !reflect.DeepEqual(got, want) {
		t.Fatalf("§5 roster = %v, want %v", got, want)
	}
}

// TestSpecNamesMatchInstances: every builder constructs a method whose
// Name() equals its registered name, in both variants.
func TestSpecNamesMatchInstances(t *testing.T) {
	for _, spec := range Methods() {
		if spec.New != nil {
			if got := spec.New(ga()).Name(); got != spec.Name {
				t.Errorf("spec %q New() builds %q", spec.Name, got)
			}
		}
		if spec.NewSSD != nil {
			if got := spec.NewSSD(ga()).Name(); got != spec.Name {
				t.Errorf("spec %q NewSSD() builds %q", spec.Name, got)
			}
		}
	}
}

// TestNewVariantSelection: the ssd flag picks the four-objective build
// where one exists, and single-builder methods resolve either way.
func TestNewVariantSelection(t *testing.T) {
	cfg := ga()
	two, err := New("BBSched", cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	four, err := New("BBSched", cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(two.(*core.BBSched).Objectives); n != 2 {
		t.Fatalf("§4 BBSched has %d objectives", n)
	}
	if n := len(four.(*core.BBSched).Objectives); n != 4 {
		t.Fatalf("§5 BBSched has %d objectives", n)
	}
	// §5-only method resolves even without the ssd flag.
	if _, err := New("Constrained_SSD", cfg, false); err != nil {
		t.Fatal(err)
	}
	if _, err := New("NoSuchMethod", cfg, false); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestRegisterValidation checks the methods table: names are non-empty
// and unique, every method has a builder and every §4 member a
// two-objective one; and Methods hands out a copy.
func TestRegisterValidation(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range methods {
		switch {
		case spec.Name == "" || seen[spec.Name]:
			t.Errorf("method name %q is empty or repeated", spec.Name)
		case spec.New == nil && spec.NewSSD == nil:
			t.Errorf("method %q has no builder", spec.Name)
		case spec.Section4 && spec.New == nil:
			t.Errorf("method %q is in the §4 roster without a two-objective builder", spec.Name)
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
