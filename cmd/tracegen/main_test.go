package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"bbsched/internal/trace"
)

func TestBuildVariants(t *testing.T) {
	for _, variant := range []string{"ORIGINAL", "S1", "S2", "S3", "S4", "S5", "S6", "S7"} {
		w, err := build("theta", 120, 1, 32, variant, 0)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if len(w.Jobs) != 120 {
			t.Fatalf("%s: %d jobs", variant, len(w.Jobs))
		}
		ssd := variant >= "S5" && variant <= "S7"
		if ssd && len(w.System.Cluster.SSDClasses) == 0 {
			t.Fatalf("%s: SSD variant without SSD classes", variant)
		}
	}
}

// TestBuildMatchesApplyVariant: the materialized trace tracegen writes for
// a variant is the workload trace.ApplyVariant derives from the same base,
// the one bbsim -variant and the paper matrices run.
func TestBuildMatchesApplyVariant(t *testing.T) {
	base := trace.Generate(trace.GenConfig{System: trace.Scale(trace.Theta(), 32), Jobs: 150, Seed: 3, DependencyFraction: 0.1})
	for _, variant := range trace.Variants() {
		got, err := build("theta", 150, 3, 32, strings.ToUpper(variant), 0.1)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		want, err := trace.ApplyVariant(base, variant, 3)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		var g, w bytes.Buffer
		if err := trace.WriteCSV(&g, got.Jobs); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteCSV(&w, want.Jobs); err != nil {
			t.Fatal(err)
		}
		if got.Name != want.Name || !reflect.DeepEqual(got.System, want.System) || !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Fatalf("%s: tracegen builds %s, ApplyVariant %s, and their traces differ", variant, got.Name, want.Name)
		}
	}
}

func TestBuildCori(t *testing.T) {
	w, err := build("cori", 50, 1, 64, "ORIGINAL", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if w.System.Policy != trace.FCFS {
		t.Fatal("Cori should use FCFS")
	}
	deps := 0
	for _, j := range w.Jobs {
		deps += len(j.Deps)
	}
	if deps == 0 {
		t.Fatal("dependency fraction ignored")
	}
}

func TestBuildRejectsUnknown(t *testing.T) {
	if _, err := build("summit", 10, 1, 1, "ORIGINAL", 0); err == nil {
		t.Fatal("unknown system accepted")
	}
	if _, err := build("theta", 10, 1, 1, "S9", 0); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestBuildOutputRoundTrips(t *testing.T) {
	w, err := build("theta", 60, 2, 32, "S4", 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, w.Jobs); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 60 {
		t.Fatalf("round trip = %d jobs", len(back))
	}
}
