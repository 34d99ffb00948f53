package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"bbsched/internal/sched"
	"bbsched/internal/trace"
)

// TestRunUntilPulledSegmentedMatchesOneShot pins the relay contract at
// the simulator level: a stream run split at arbitrary ingestion
// boundaries — RunUntilPulled, Checkpoint, Restore into a fresh process
// with a fresh source — produces the same Result as one uninterrupted
// run. This is what lets the farm shard a giant stream cell into
// sequential segments handed from worker to worker.
func TestRunUntilPulledSegmentedMatchesOneShot(t *testing.T) {
	sys := trace.Scale(trace.Theta(), 128)
	cfg := trace.GenConfig{System: sys, Jobs: 2000, Seed: 11, TargetLoad: 0.95}
	shell := trace.Workload{Name: "relay", System: sys}
	opts := func() []Option {
		return []Option{WithSource(trace.GenSource(cfg)), WithStreamingMetrics(), WithMeasurement(0, 0), WithSeed(1)}
	}

	oneShot, err := NewSimulator(shell, sched.Baseline{}, opts()...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oneShot.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSimulator(shell, sched.Baseline{}, opts()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, boundary := range []int{500, 1200, 1700} {
		if err := s.RunUntilPulled(boundary); err != nil {
			t.Fatal(err)
		}
		if got := s.SourcePulled(); got < boundary {
			t.Fatalf("SourcePulled() = %d after RunUntilPulled(%d)", got, boundary)
		}
		if s.Done() {
			t.Fatalf("stream drained before boundary %d", boundary)
		}
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		s, err = Restore(shell, sched.Baseline{}, &buf, opts()...)
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Errorf("segmented Report differs from one-shot run:\n%+v\nvs\n%+v", got.Report, want.Report)
	}
	if got.TotalJobs != want.TotalJobs || got.MeasuredJobs != want.MeasuredJobs ||
		got.SchedInvocations != want.SchedInvocations || got.MakespanSec != want.MakespanSec {
		t.Errorf("deterministic counters differ: segmented {jobs %d/%d inv %d mk %d}, one-shot {jobs %d/%d inv %d mk %d}",
			got.TotalJobs, got.MeasuredJobs, got.SchedInvocations, got.MakespanSec,
			want.TotalJobs, want.MeasuredJobs, want.SchedInvocations, want.MakespanSec)
	}
}
