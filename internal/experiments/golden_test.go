package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The paper's numbers as a checked artefact: testdata/all.golden is
// `go run ./cmd/experiments -run all` at the default options, with the
// columns that report wall-clock time masked. Regenerate it deliberately
// with
//
//	go test ./internal/experiments -run TestRunAllGolden -update-golden
//
// and review the diff: every line that moves is a reported number that
// moved.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/all.golden from the current implementation")

// timingColumns names, per experiment id, the table columns that report
// wall-clock time. They are the only output that differs from run to run
// or between worker counts.
var timingColumns = map[string][]string{
	"fig2":     {"exhaustive", "genetic"},
	"fig4":     {"avg_time"},
	"overhead": {"avg_decision_time"},
	"solvers":  {"avg_decision"},
}

// maskTiming replaces every cell of a timing column with "~". A table
// starts at the header line that names one of its section's timing
// columns and ends at the next blank line; its lines are re-joined with
// two spaces, since a timing cell's width moves the alignment. Every
// other line is kept byte for byte.
func maskTiming(out string) string {
	var b strings.Builder
	var cols []string // the current section's timing columns
	var mask []int    // the current table's fields to mask
	for _, line := range strings.SplitAfter(out, "\n") {
		text := strings.TrimSuffix(line, "\n")
		fields := strings.Fields(text)
		switch {
		case strings.HasPrefix(text, "### ") && len(fields) > 1:
			cols, mask = timingColumns[fields[1]], nil
		case len(fields) == 0:
			mask = nil
		case mask == nil && len(cols) > 0:
			for i, f := range fields {
				if slices.Contains(cols, f) {
					mask = append(mask, i)
				}
			}
			if mask != nil {
				line = strings.Join(fields, "  ") + "\n"
			}
		case mask != nil:
			for _, i := range mask {
				if i < len(fields) {
					fields[i] = "~"
				}
			}
			line = strings.Join(fields, "  ") + "\n"
		}
		b.WriteString(line)
	}
	return b.String()
}

// TestRunAllGolden runs every experiment at the default options with one
// and with two workers and holds both outputs, timing masked, to
// testdata/all.golden: the schedules, the paper's tables and the
// determinism of the parallel sweep across worker counts in one check.
func TestRunAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full run-all in -short mode")
	}
	golden := filepath.Join("testdata", "all.golden")
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			if *updateGolden && workers != 1 {
				t.Skip("-update-golden writes the one-worker run; run again without it to check the others")
			}
			o := Defaults()
			o.Parallelism = workers
			var buf bytes.Buffer
			if err := NewRunner(o).RunAll(&buf); err != nil {
				t.Fatal(err)
			}
			got := maskTiming(buf.String())
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden output (regenerate with -update-golden): %v", err)
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := range max(len(gl), len(wl)) {
				g, w := "(none)", "(none)"
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("output differs from %s at line %d:\n got %q\nwant %q", golden, i+1, g, w)
				}
			}
		})
	}
}

func TestMaskTiming(t *testing.T) {
	in := "### fig4 — x\nFig 4: time\nP   G     avg_GD   avg_time\n20  0     20.3976  0.0000s \n\nkept  0.5s\n### table3 — y\nw   avg_time\n20  1s\n"
	want := "### fig4 — x\nFig 4: time\nP  G  avg_GD  avg_time\n20  0  20.3976  ~\n\nkept  0.5s\n### table3 — y\nw   avg_time\n20  1s\n"
	if got := maskTiming(in); got != want {
		t.Fatalf("maskTiming:\n got %q\nwant %q", got, want)
	}
}
