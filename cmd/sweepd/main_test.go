package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadGridStrict: the -print-grid template loads — spelled as every
// build so far has printed it, retired "Parallelism" field included — and
// a grid that sets an option this build no longer has, the per-solve
// worker pool, is refused by name instead of running without it.
func TestLoadGridStrict(t *testing.T) {
	blob, err := json.MarshalIndent(templateGrid(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	template := string(blob)
	if !strings.Contains(template, `"Parallelism": 0`) || !strings.Contains(template, `"window": 20`) {
		t.Fatalf("template no longer spells the fields this test edits:\n%s", template)
	}
	write := func(content string) string {
		path := filepath.Join(t.TempDir(), "grid.json")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	grid, err := loadGrid(write(template))
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.Validate(); err != nil || len(grid.Cells()) != 6 {
		t.Fatalf("template loaded as %d cells (validate: %v), want 6", len(grid.Cells()), err)
	}
	_, err = loadGrid(write(strings.Replace(template, `"window": 20`, `"window": 20, "solver_workers": 2`, 1)))
	if err == nil || !strings.Contains(err.Error(), `"solver_workers"`) {
		t.Fatalf("grid with solver_workers: error %v, want one naming the field", err)
	}
}
