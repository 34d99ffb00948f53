package bbsched_test

import (
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
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

	if len(bbsched.Methods()) < 9 {
		t.Fatalf("registry lists %d methods", len(bbsched.Methods()))
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

// TestFacadeWindowSolve exercises the lower-level window API on the
// paper's Table 1 window: the exact and the GA solve of its node
// objective both find the only full-machine selection, J1 + J5.
func TestFacadeWindowSolve(t *testing.T) {
	machine, err := bbsched.NewCluster(bbsched.ClusterConfig{Name: "m", Nodes: 100, BurstBufferGB: 100})
	if err != nil {
		t.Fatal(err)
	}
	window := []*bbsched.Job{
		bbsched.MustNewJob(1, 0, 100, 100, bbsched.NewDemand(80, 20, 0)),
		bbsched.MustNewJob(2, 1, 100, 100, bbsched.NewDemand(10, 85, 0)),
		bbsched.MustNewJob(3, 2, 100, 100, bbsched.NewDemand(40, 5, 0)),
		bbsched.MustNewJob(4, 3, 100, 100, bbsched.NewDemand(10, 0, 0)),
		bbsched.MustNewJob(5, 4, 100, 100, bbsched.NewDemand(20, 0, 0)),
	}
	p := bbsched.NewSelectionProblem(window, machine.Snapshot(), []bbsched.Objective{bbsched.NodeUtil})
	exact, err := bbsched.SolveExhaustive(p)
	if err != nil {
		t.Fatal(err)
	}
	ga, err := bbsched.SolveGA(p, bbsched.DefaultGAConfig(), bbsched.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	for name, front := range map[string][]bbsched.Solution{"exhaustive": exact, "ga": ga} {
		if len(front) == 0 {
			t.Fatalf("%s: empty front", name)
		}
		for _, s := range front {
			if picked := s.Genome.Ones(); s.Objectives[0] != 100 || !reflect.DeepEqual(picked, []int{0, 4}) {
				t.Fatalf("%s: front holds jobs %v at %v nodes, want J1 + J5 at 100", name, picked, s.Objectives)
			}
		}
	}
}

// passCounter counts scheduling passes.
type passCounter struct {
	bbsched.NopObserver
	passes int
}

func (c *passCounter) OnSchedule(bbsched.ScheduleInfo) { c.passes++ }

// TestFacadeExtensions exercises the beyond-the-paper surface the facade
// keeps: an extra resource dimension with per-dimension objectives, run
// under an Observer and the JSONL event log.
func TestFacadeExtensions(t *testing.T) {
	sys := bbsched.WithExtraResource(bbsched.ScaleSystem(bbsched.Theta(), 64),
		bbsched.ResourceSpec{Name: "power_kw", Capacity: 150, Unit: "kW"})
	base := bbsched.Generate(bbsched.GenConfig{System: sys, Jobs: 60, Seed: 2})
	w := bbsched.AddExtraDemand(base, "ext-power", 0, 1, 4, 1.0, 2)

	ga := bbsched.GAConfig{Generations: 40, Population: 10, MutationProb: 0.01}
	m, err := bbsched.NewMethodForCluster("BBSched", ga, w.System.Cluster, false)
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	counter := &passCounter{}
	s, err := bbsched.NewSimulator(w, m, bbsched.WithSeed(1),
		bbsched.WithEventLog(&events), bbsched.WithObserver(counter))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ExtraUsage) != 1 || res.ExtraUsage[0].Usage <= 0 {
		t.Fatalf("extra-dimension usage = %+v", res.ExtraUsage)
	}
	if n := bytes.Count(events.Bytes(), []byte("\n")); n < 120 { // 60 submits + 60 starts at minimum
		t.Fatalf("event log has %d records", n)
	}
	if counter.passes == 0 {
		t.Fatal("observer saw no scheduling pass")
	}
}

// TestFacadeStreaming drives the streaming surface through the facade: a
// generated stream replayed online with bounded-memory metrics matches
// the same jobs preloaded, and a variant derived from a stream runs.
func TestFacadeStreaming(t *testing.T) {
	sys := bbsched.ScaleSystem(bbsched.Theta(), 128)
	cfg := bbsched.GenConfig{System: sys, Jobs: 50, Seed: 5}

	// GenSource is its own distribution, so drain a second copy of the
	// same stream for the materialized comparison run.
	var jobs []*bbsched.Job
	for src := bbsched.GenSource(cfg); ; {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	shell := bbsched.Workload{Name: "stream", System: sys}
	s, err := bbsched.NewSimulator(shell, bbsched.Baseline{},
		bbsched.WithSource(bbsched.GenSource(cfg)),
		bbsched.WithStreamingMetrics(), bbsched.WithMeasurement(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalJobs != 50 {
		t.Fatalf("stream ran %d jobs, want 50", res.TotalJobs)
	}

	mat, err := bbsched.NewSimulator(
		bbsched.Workload{Name: "stream", System: sys, Jobs: jobs},
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

	src, vsys, name, err := bbsched.ApplyVariantSource(bbsched.GenSource(cfg), sys, "S3", 5)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := bbsched.NewSimulator(bbsched.Workload{Name: name, System: vsys}, bbsched.Baseline{},
		bbsched.WithSource(src), bbsched.WithMeasurement(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	vres, err := vs.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vres.TotalJobs != 50 {
		t.Fatalf("variant stream ran %d jobs, want 50", vres.TotalJobs)
	}
}

// TestFacadeExportsAreUsed keeps the facade to the names its callers use:
// every name bbsched.go exports must be referenced as bbsched.Name by an
// example program (examples/*/main.go) or an Example function, or appear
// in a README.md Go code block or the package doc.
func TestFacadeExportsAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "bbsched.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	add := func(re *regexp.Regexp, text string) {
		for _, m := range re.FindAllStringSubmatch(text, -1) {
			used[m[1]] = true
		}
	}
	word := regexp.MustCompile(`\b([A-Z][A-Za-z0-9_]*)`)
	qualified := regexp.MustCompile(`\bbbsched\.([A-Z][A-Za-z0-9_]*)`)

	add(word, facade.Doc.Text())
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range regexp.MustCompile("(?s)```go\n(.*?)```").FindAllStringSubmatch(string(readme), -1) {
		add(word, block[1])
	}
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no example programs found (%v)", err)
	}
	for _, path := range mains {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		add(qualified, string(src))
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Example") {
				add(qualified, string(src[fset.Position(fn.Pos()).Offset:fset.Position(fn.End()).Offset]))
			}
		}
	}

	var unused []string
	for _, decl := range facade.Decls {
		var names []*ast.Ident
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names = append(names, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name)
				case *ast.ValueSpec:
					names = append(names, s.Names...)
				}
			}
		}
		for _, n := range names {
			if n.IsExported() && !used[n.Name] {
				unused = append(unused, n.Name)
			}
		}
	}
	if len(unused) > 0 {
		t.Errorf("bbsched.go exports %d names no example, Example function, README Go block or package doc references: %s",
			len(unused), strings.Join(unused, " "))
	}
}
