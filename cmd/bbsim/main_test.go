package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/trace"
)

// generated is the workload bbsim generates for these flags.
func generated(system string, jobs int, seed uint64, scale int, variant string) (trace.Workload, error) {
	rec, err := recipe(system, scale, jobs, seed, variant, 0)
	if err != nil {
		return trace.Workload{}, err
	}
	w, _, err := loadWorkload("", rec)
	return w, err
}

// theta32 is the recipe of bbsim's default machine, for the trace-file
// tests, whose -jobs is ignored.
func theta32(t *testing.T, seed uint64, variant string) trace.Recipe {
	t.Helper()
	rec, err := recipe("theta", 32, 0, seed, variant, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestBuildGeneratedVariants(t *testing.T) {
	for _, variant := range []string{"original", "s1", "S4", "s6"} {
		w, err := generated("theta", 80, 1, 32, variant)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
	}
	if _, err := generated("theta", 10, 1, 32, "S99"); err == nil {
		t.Fatal("unknown variant accepted")
	}
	if _, err := generated("mira", 10, 1, 32, "original"); err == nil {
		t.Fatal("unknown system accepted")
	}
}

// TestRecipeRejectsBadFlags: a job count below one and a scale below one
// fail instead of running an empty workload or the full-size machine.
func TestRecipeRejectsBadFlags(t *testing.T) {
	for _, jobs := range []int{0, -5} {
		if _, err := generated("theta", jobs, 1, 32, "original"); err == nil {
			t.Fatalf("-jobs %d accepted", jobs)
		}
	}
	if _, err := generated("theta", 10, 1, -3, "original"); err == nil {
		t.Fatal("-scale -3 accepted")
	}
}

func TestLoadWorkloadFromCSV(t *testing.T) {
	w, err := generated("theta", 40, 3, 32, "original")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(f, w.Jobs); err != nil {
		t.Fatal(err)
	}
	f.Close()

	loaded, _, err := loadWorkload(path, theta32(t, 3, "original"))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Jobs) != 40 {
		t.Fatalf("loaded %d jobs", len(loaded.Jobs))
	}
	if loaded.System.Cluster.Nodes != w.System.Cluster.Nodes {
		t.Fatal("system model mismatch")
	}
	// An SSD variant replays the file on the recipe's SSD machine.
	rec := theta32(t, 3, "S6")
	ssd, _, err := loadWorkload(path, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ssd.System, rec.System()) || len(ssd.System.Cluster.SSDClasses) == 0 {
		t.Fatalf("S6 trace replays on %+v, want the recipe's SSD machine", ssd.System.Cluster)
	}
}

func TestLoadWorkloadMissingFile(t *testing.T) {
	if _, _, err := loadWorkload("/nonexistent/trace.csv", theta32(t, 32, "original")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestBindTraceExtrasByName guards the CSV extra-column binding: columns
// bind to declared -extra dimensions by NAME, never by position, and an
// undeclared column is an error rather than a silently mischarged budget.
func TestBindTraceExtrasByName(t *testing.T) {
	jobs := []*job.Job{
		job.MustNew(0, 0, 600, 900, job.NewDemandVector(4, 100, 0, 7, 40)),
	}
	path := filepath.Join(t.TempDir(), "extras.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// File order: nvram_gb first, power_kw second.
	if err := trace.WriteCSV(f, jobs, "nvram_gb", "power_kw"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w, names, err := loadWorkload(path, theta32(t, 1, "original"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "nvram_gb" || names[1] != "power_kw" {
		t.Fatalf("extra column names = %v", names)
	}
	// Declared order: power_kw first — the demands must swap accordingly.
	w.System = trace.WithExtraResource(w.System, cluster.ResourceSpec{Name: "power_kw", Capacity: 100, Unit: "kW"})
	w.System = trace.WithExtraResource(w.System, cluster.ResourceSpec{Name: "nvram_gb", Capacity: 500, Unit: "GB"})
	bound, err := bindTraceExtras(w, names)
	if err != nil {
		t.Fatal(err)
	}
	d := bound.Jobs[0].Demand
	if d.Extra(0) != 40 || d.Extra(1) != 7 {
		t.Fatalf("extras bound positionally, not by name: [%d %d], want [40 7]", d.Extra(0), d.Extra(1))
	}

	// An undeclared column must fail loudly.
	w.System.Cluster.Extra = w.System.Cluster.Extra[:1] // drop nvram_gb
	if _, err := bindTraceExtras(w, names); err == nil {
		t.Fatal("undeclared trace column accepted")
	}
}
