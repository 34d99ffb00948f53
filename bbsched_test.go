package bbsched_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"bbsched"
)

// ExampleSimulator steps a tiny deterministic scenario through the engine,
// inspecting the clock, queue depth, and running set between event
// instants, then reads the final metrics.
func ExampleSimulator() {
	sys := bbsched.SystemModel{
		Cluster: bbsched.ClusterConfig{Name: "demo", Nodes: 8, BurstBufferGB: 100},
		Policy:  bbsched.PolicyFCFS,
	}
	w := bbsched.Workload{Name: "demo", System: sys, Jobs: []*bbsched.Job{
		bbsched.MustNewJob(0, 0, 300, 300, bbsched.NewDemand(6, 40, 0)),
		bbsched.MustNewJob(1, 0, 200, 200, bbsched.NewDemand(6, 20, 0)),
		bbsched.MustNewJob(2, 100, 100, 100, bbsched.NewDemand(2, 0, 0)),
	}}

	s, err := bbsched.NewSimulator(w, bbsched.Baseline{},
		bbsched.WithWindow(4, 0),
		bbsched.WithMeasurement(0, 0), // explicit zero: measure every job
	)
	if err != nil {
		panic(err)
	}
	for {
		more, err := s.Step()
		if err != nil {
			panic(err)
		}
		if !more {
			break
		}
		fmt.Printf("t=%3ds queued=%d running=%d\n", s.Now(), s.QueueDepth(), s.RunningJobs())
	}
	res, err := s.Result()
	if err != nil {
		panic(err)
	}
	fmt.Printf("makespan=%ds avg wait=%.0fs measured=%d\n", res.MakespanSec, res.AvgWaitSec, res.MeasuredJobs)

	// Output:
	// t=  0s queued=1 running=1
	// t=100s queued=1 running=2
	// t=200s queued=1 running=1
	// t=300s queued=0 running=1
	// t=500s queued=0 running=0
	// makespan=500s avg wait=100s measured=3
}

// TestFacadeEngineSweepRegistry drives the new engine surface end to end:
// registry-built methods swept over seeds, with the compat wrapper
// cross-checked against a sweep cell.
func TestFacadeEngineSweepRegistry(t *testing.T) {
	system := bbsched.ScaleSystem(bbsched.Cori(), 128)
	base := bbsched.Generate(bbsched.GenConfig{System: system, Jobs: 50, Seed: 4})
	base.Name = system.Cluster.Name + "-Original"
	w, err := bbsched.ApplyVariant(base, "S2", 4)
	if err != nil {
		t.Fatal(err)
	}

	ga := bbsched.GAConfig{Generations: 40, Population: 10, MutationProb: 0.01}
	baseline, err := bbsched.NewMethod("Baseline", ga, bbsched.IsSSDVariant("S2"))
	if err != nil {
		t.Fatal(err)
	}
	bb, err := bbsched.NewMethod("BBSched", ga, false)
	if err != nil {
		t.Fatal(err)
	}

	runs, err := bbsched.RunSweep(context.Background(), bbsched.Sweep{
		Workloads: []bbsched.Workload{w},
		Methods:   []bbsched.Method{baseline, bb},
		Seeds:     []uint64{1, 2},
		Options:   []bbsched.SimOption{bbsched.WithWindow(5, 50)},
		Workers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("sweep produced %d runs, want 4", len(runs))
	}

	// A standalone simulator reproduces a sweep cell exactly.
	s, err := bbsched.NewSimulator(w, bb, bbsched.WithWindow(5, 50), bbsched.WithSeed(runs[2].Seed))
	if err != nil {
		t.Fatal(err)
	}
	solo, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if runs[2].Method != "BBSched" {
		t.Fatalf("run order: %+v", runs[2])
	}
	if !reflect.DeepEqual(solo.Report, runs[2].Result.Report) {
		t.Fatal("standalone run diverges from the equivalent sweep cell")
	}

	if len(bbsched.MethodNames()) < 9 {
		t.Fatalf("registry lists %d methods", len(bbsched.MethodNames()))
	}
}

// TestFacadeEndToEnd drives the public API exactly as the package doc
// shows: model a system, generate a workload, run BBSched, read metrics.
func TestFacadeEndToEnd(t *testing.T) {
	system := bbsched.ScaleSystem(bbsched.Theta(), 64)
	workload := bbsched.Generate(bbsched.GenConfig{System: system, Jobs: 80, Seed: 1})

	method := bbsched.New()
	method.GA = bbsched.GAConfig{Generations: 60, Population: 12, MutationProb: 0.01}

	s, err := bbsched.NewSimulator(workload, method, bbsched.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalJobs != 80 {
		t.Fatalf("total jobs = %d", res.TotalJobs)
	}
	if res.NodeUsage <= 0 || res.NodeUsage > 1 {
		t.Fatalf("node usage = %v", res.NodeUsage)
	}
}

// TestFacadeWindowSolve exercises the lower-level window API.
func TestFacadeWindowSolve(t *testing.T) {
	machine, err := bbsched.NewCluster(bbsched.ClusterConfig{Name: "m", Nodes: 100, BurstBufferGB: 100})
	if err != nil {
		t.Fatal(err)
	}
	var window []*bbsched.Job
	for i, d := range []bbsched.Demand{
		bbsched.NewDemand(80, 20, 0),
		bbsched.NewDemand(10, 85, 0),
		bbsched.NewDemand(40, 5, 0),
		bbsched.NewDemand(10, 0, 0),
		bbsched.NewDemand(20, 0, 0),
	} {
		j, err := bbsched.NewJob(i+1, int64(i), 100, 100, d)
		if err != nil {
			t.Fatal(err)
		}
		window = append(window, j)
	}
	p := bbsched.NewSelectionProblem(window, machine.Snapshot(), bbsched.TwoObjectives())
	front, err := bbsched.SolveExhaustive(p)
	if err != nil {
		t.Fatal(err)
	}
	pick := bbsched.Decide(front, bbsched.TwoObjectives(), bbsched.TotalsOf(machine.Config()), 2)
	objs := front[pick].Objectives
	if objs[0] != 80 || objs[1] != 90 {
		t.Fatalf("decision rule picked %v, want the paper's (80, 90)", objs)
	}
}

// TestFacadeExtensions exercises the beyond-the-paper API surface:
// adaptive controller, dynamic window, stage-out, persistent reservations,
// SWF, and the event log, end to end in one simulation.
func TestFacadeExtensions(t *testing.T) {
	system := bbsched.WithPersistentBB(bbsched.ScaleSystem(bbsched.Theta(), 64), 0.1)
	base := bbsched.Generate(bbsched.GenConfig{System: system, Jobs: 60, Seed: 2})
	_, heavy := bbsched.BBFloors(base)
	w := bbsched.ExpandBB(base, "ext-S4", 0.5, heavy, 3)
	w = bbsched.WithStageOut(w, 25)

	inner := bbsched.New()
	inner.GA = bbsched.GAConfig{Generations: 40, Population: 10, MutationProb: 0.01}
	var events bytes.Buffer
	s, err := bbsched.NewSimulator(w, bbsched.NewAdaptive(inner),
		bbsched.WithPlugin(bbsched.PluginConfig{
			WindowPolicy:    bbsched.NewAdaptiveWindow(),
			StarvationBound: 50,
		}),
		bbsched.WithSeed(1), bbsched.WithEventLog(&events))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "BBSched_Adaptive" {
		t.Fatalf("method = %s", res.Method)
	}
	recs, err := bbsched.ReadEventLog(&events)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 120 { // 60 submits + 60 starts at minimum
		t.Fatalf("event log has %d records", len(recs))
	}

	// SWF round-trips through the facade too.
	var swf bytes.Buffer
	if err := bbsched.WriteSWF(&swf, base.Jobs, 64); err != nil {
		t.Fatal(err)
	}
	back, err := bbsched.ReadSWF(&swf, bbsched.SWFOptions{CoresPerNode: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(base.Jobs) {
		t.Fatalf("swf round trip: %d jobs", len(back))
	}
}

// TestFacadeStreaming drives the streaming surface through the facade:
// a generated stream piped through the incremental CSV writer, re-opened
// as a CSVSource, capped, run with bounded-memory metrics, and
// cross-checked against the same jobs preloaded.
func TestFacadeStreaming(t *testing.T) {
	sys := bbsched.ScaleSystem(bbsched.Theta(), 128)
	cfg := bbsched.GenConfig{System: sys, Jobs: 80, Seed: 5}

	// GenSource agrees with nothing else — it is its own distribution —
	// so materialize it once via CollectSource for the comparison run.
	jobs, err := bbsched.CollectSource(bbsched.GenSource(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cw := bbsched.NewTraceCSVWriter(&buf)
	for _, j := range jobs {
		if err := cw.Write(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}

	src, err := bbsched.NewCSVSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	shell := bbsched.Workload{Name: "stream", System: sys}
	s, err := bbsched.NewSimulator(shell, bbsched.Baseline{},
		bbsched.WithSource(bbsched.LimitSource(src, 50)),
		bbsched.WithStreamingMetrics(), bbsched.WithMeasurement(0, 0), bbsched.WithLookahead(16))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalJobs != 50 {
		t.Fatalf("limited stream ran %d jobs, want 50", res.TotalJobs)
	}

	mat, err := bbsched.NewSimulator(
		bbsched.Workload{Name: "stream", System: sys, Jobs: jobs[:50]},
		bbsched.Baseline{}, bbsched.WithMeasurement(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := mat.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgWaitSec != wantRes.AvgWaitSec || res.MakespanSec != wantRes.MakespanSec ||
		res.CompletedJobs != wantRes.CompletedJobs {
		t.Fatalf("streamed run diverges from materialized: %+v vs %+v", res.Report, wantRes.Report)
	}

	// The streaming variant pipeline exists on the facade too.
	floor5, _ := bbsched.EstimateBBFloors(sys, 5)
	exp, err := bbsched.CollectSource(bbsched.ExpandBBSource(
		bbsched.StageOutSource(bbsched.SourceOf(bbsched.Workload{System: sys, Jobs: jobs}), 2),
		sys, 0.75, floor5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(exp) != len(jobs) {
		t.Fatalf("combinator pipeline changed job count: %d vs %d", len(exp), len(jobs))
	}
	if _, _, _, err := bbsched.ApplyVariantSource(bbsched.NewSliceSource(jobs), sys, "S3", 5); err != nil {
		t.Fatal(err)
	}
}
