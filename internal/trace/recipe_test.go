package trace

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bbsched/internal/job"
)

// TestSystemByNameAndRecipeValidate: each malformed machine name, scale or
// recipe fails with the error that names the fault, and the well-formed
// ones pass.
func TestSystemByNameAndRecipeValidate(t *testing.T) {
	theta, err := SystemByName("THETA", 32)
	if err != nil || !reflect.DeepEqual(theta, Scale(Theta(), 32)) {
		t.Fatalf("SystemByName(THETA, 32) = %v, %v", theta.Cluster, err)
	}
	if cori, err := SystemByName("cori", 1); err != nil || !reflect.DeepEqual(cori, Cori()) {
		t.Fatalf("SystemByName(cori, 1) = %v, %v", cori.Cluster, err)
	}
	for _, tc := range []struct {
		name  string
		scale int
		want  string
	}{
		{"summit", 32, `unknown system "summit"`},
		{"theta", 0, "machine scale 0"},
		{"cori", -1, "machine scale -1"},
	} {
		if _, err := SystemByName(tc.name, tc.scale); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("SystemByName(%q, %d) = %v, want %q", tc.name, tc.scale, err, tc.want)
		}
	}

	gen := GenConfig{System: theta, Jobs: 100, Seed: 1}
	for _, tc := range []struct {
		name string
		r    Recipe
		want string // "" = valid
	}{
		{"generated", Recipe{Gen: gen, Variant: "s4"}, ""},
		{"stream", Recipe{Gen: gen, Stream: true}, ""},
		{"file", Recipe{Gen: GenConfig{System: theta}, TracePath: "t.csv", Stream: true, MaxJobs: 10}, ""},
		{"jobs 0", Recipe{Gen: GenConfig{System: theta}}, `workload "Theta/32" generates 0 jobs`},
		{"jobs -1", Recipe{Name: "w", Gen: GenConfig{System: theta, Jobs: -1}, Stream: true}, `workload "w" generates -1 jobs`},
		{"variant", Recipe{Gen: gen, Variant: "S9"}, `unknown variant "S9"`},
		{"file without stream", Recipe{Gen: gen, TracePath: "t.csv"}, `workload "t.csv": trace_path requires stream`},
		{"max_jobs", Recipe{Gen: gen, TracePath: "t.csv", Stream: true, MaxJobs: -1}, "negative max_jobs -1"},
	} {
		err := tc.r.Validate()
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: Validate() = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestRecipeFileMatchesGenerator: a recipe over a trace file yields, job
// for job, what the same recipe yields over the generator the file was
// written from — the variant, the stage-out and the cap are the same
// steps whatever the source — and its shell, like Build's workload, runs
// on the machine System reports.
func TestRecipeFileMatchesGenerator(t *testing.T) {
	gen := GenConfig{System: Scale(Theta(), 32), Jobs: 1000, Seed: 5}
	_, orig, err := Recipe{Gen: gen, Stream: true}.Open()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "theta.csv.gz")
	writeGzCSV(t, path, orig)

	for _, variant := range []string{"Original", "S2", "S6"} {
		for _, maxJobs := range []int{0, 700} {
			for _, drain := range []float64{0, 2} {
				rec := Recipe{Gen: gen, Variant: variant, VariantSeed: 9, StageOutGBps: drain, Stream: true}
				wantShell, want := openAll(t, rec)
				file := rec
				file.TracePath, file.MaxJobs = path, maxJobs
				shell, got := openAll(t, file)
				if maxJobs > 0 {
					want = want[:maxJobs]
				}
				if len(got) != len(want) {
					t.Fatalf("%s cap %d drain %v: file yields %d jobs, generator %d", variant, maxJobs, drain, len(got), len(want))
				}
				staged := false
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("%s cap %d drain %v: job %d from the file %+v, from the generator %+v",
							variant, maxJobs, drain, i, got[i], want[i])
					}
					staged = staged || got[i].StageOutSec > 0
				}
				if staged != (drain > 0) {
					t.Fatalf("%s cap %d drain %v: stage-out phases present = %v", variant, maxJobs, drain, staged)
				}
				if !reflect.DeepEqual(shell, wantShell) || !reflect.DeepEqual(shell.System, rec.System()) {
					t.Fatalf("%s: shells %+v and %+v, System() %+v", variant, shell.System.Cluster, wantShell.System.Cluster, rec.System().Cluster)
				}
				rec.Stream = false
				if w, err := rec.Build(); err != nil || !reflect.DeepEqual(w.System, rec.System()) {
					t.Fatalf("%s: Build runs on %+v (%v), System() %+v", variant, w.System.Cluster, err, rec.System().Cluster)
				}
			}
		}
	}
}

// writeGzCSV writes src to path as a gzipped CSV trace.
func writeGzCSV(t *testing.T, path string, src JobSource) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // as tracegen writes a .gz name
	w := NewCSVWriter(gz)
	for {
		j, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
}

// openAll opens r and drains its source.
func openAll(t *testing.T, r Recipe) (Workload, []*job.Job) {
	t.Helper()
	shell, src, err := r.Open()
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	return shell, jobs
}

// TestRecipeModeMismatch: Build refuses a stream recipe and Open a
// materialized one; Open of a missing file or an unknown variant fails.
func TestRecipeModeMismatch(t *testing.T) {
	gen := GenConfig{System: Scale(Theta(), 32), Jobs: 10, Seed: 1}
	if _, err := (Recipe{Gen: gen, Stream: true}).Build(); err == nil {
		t.Fatal("Build of a stream recipe accepted")
	}
	if _, _, err := (Recipe{Gen: gen}).Open(); err == nil {
		t.Fatal("Open of a materialized recipe accepted")
	}
	if _, _, err := (Recipe{Gen: gen, TracePath: filepath.Join(t.TempDir(), "none.csv"), Stream: true}).Open(); err == nil {
		t.Fatal("Open of a missing file accepted")
	}
	if _, _, err := (Recipe{Gen: gen, Variant: "S9", Stream: true}).Open(); err == nil {
		t.Fatal("Open of an unknown variant accepted")
	}
	if _, err := (Recipe{Gen: gen, Variant: "S9"}).Build(); err == nil {
		t.Fatal("Build of an unknown variant accepted")
	}
}
