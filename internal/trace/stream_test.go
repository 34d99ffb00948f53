package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bbsched/internal/job"
)

func testStreamSystem() SystemModel { return Scale(Theta(), 128) }

// TestSliceSourceRoundTrip pins the compat bridge: draining SourceOf(w)
// yields exactly w's jobs, the jobs themselves and not copies, and the
// source reports the workload's horizon.
func TestSliceSourceRoundTrip(t *testing.T) {
	w := Generate(GenConfig{System: testStreamSystem(), Jobs: 40, Seed: 9, DependencyFraction: 0.2})
	src := SourceOf(w)
	if hz, ok := src.Horizon(); !ok || hz != ComputeStats(w.Jobs).HorizonSec {
		t.Fatalf("Horizon() = %d,%v want %d,true", hz, ok, ComputeStats(w.Jobs).HorizonSec)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w.Jobs) {
		t.Fatal("collected stream differs from backing jobs")
	}
	// Jobs are read-only, so a pull hands out the backing job itself.
	src = SourceOf(w)
	j, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if j != w.Jobs[0] {
		t.Fatal("SliceSource.Next copied the backing job")
	}
	if _, err := Collect(src); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("drained source Next err = %v, want io.EOF", err)
	}
}

// TestTransformsCopyWhatTheyChange: a stream transform hands on a changed
// copy of a job and never writes the job it pulled, so a transform over a
// workload's own jobs (SourceOf) leaves the workload as it was.
func TestTransformsCopyWhatTheyChange(t *testing.T) {
	sys := testStreamSystem()
	w := Generate(GenConfig{System: sys, Jobs: 60, Seed: 3, DependencyFraction: 0.2})
	was := make([]job.Job, len(w.Jobs))
	for i, j := range w.Jobs {
		was[i] = *j.Clone()
	}
	ssd, _ := AddSSDSource(ExpandBBSource(StageOutSource(SourceOf(w), 0.5), sys, 0.9, 16, 5), sys, S6, 7)
	got, err := Collect(ssd)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i, j := range w.Jobs {
		if !reflect.DeepEqual(*j, was[i]) {
			t.Fatalf("job %d was written by a transform: %+v, was %+v", j.ID, *j, was[i])
		}
		if got[i] != j {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("the transforms changed no job; the test needs changed jobs to mean anything")
	}
}

// TestOpenCSVMatchesReadCSV pins streaming/materialized decoder
// equivalence over a workload with deps and stage-out — the "slice path
// is a compat wrapper" regression test.
func TestOpenCSVMatchesReadCSV(t *testing.T) {
	w := Generate(GenConfig{System: testStreamSystem(), Jobs: 50, Seed: 5, DependencyFraction: 0.15, BBDrainGBps: 2})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, w.Jobs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streaming CSV decode differs from materialized ReadCSV")
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCSVSourceRejectsUnorderedTraces pins the streaming-only contract
// errors: non-dense IDs and submit-time regressions.
func TestCSVSourceRejectsUnorderedTraces(t *testing.T) {
	mk := func(rows string) *CSVSource {
		src, err := NewCSVSource(bytes.NewReader([]byte(
			"id,user,submit,runtime,walltime,nodes,bb_gb,ssd_gb_per_node,stageout,deps\n" + rows)))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	if _, err := Collect(mk("1,u,0,60,60,1,0,0,0,\n")); err == nil {
		t.Fatal("non-dense first ID accepted")
	}
	if _, err := Collect(mk("0,u,50,60,60,1,0,0,0,\n1,u,10,60,60,1,0,0,0,\n")); err == nil {
		t.Fatal("submit regression accepted")
	}
	if _, err := Collect(mk("0,u,0,60,60,1,0,0,0,\n1,u,10,60,60,1,0,0,0,2\n")); err == nil {
		t.Fatal("forward dep accepted")
	}
}

// TestCSVWriterMatchesWriteCSV pins the streaming writer byte-for-byte
// against the materialized one, extras included.
func TestCSVWriterMatchesWriteCSV(t *testing.T) {
	jobs := []*job.Job{
		job.MustNew(0, 0, 100, 200, job.NewDemandVector(4, 512, 0, 75)),
		job.MustNew(1, 5, 60, 60, job.NewDemandVector(1, 0, 128, 3)),
	}
	jobs[1].Deps = []int{0}
	jobs[1].User = "alice"
	var want bytes.Buffer
	if err := WriteCSV(&want, jobs, "power_kw"); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	sw := NewCSVWriter(&got, "power_kw")
	for _, j := range jobs {
		if err := sw.Write(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("streaming writer output differs:\n%s\nvs\n%s", got.Bytes(), want.Bytes())
	}
	// An empty stream still yields a parseable header-only trace.
	var empty bytes.Buffer
	if err := NewCSVWriter(&empty).Flush(); err != nil {
		t.Fatal(err)
	}
	if js, err := ReadCSV(bytes.NewReader(empty.Bytes())); err != nil || len(js) != 0 {
		t.Fatalf("header-only trace: %d jobs, err %v", len(js), err)
	}
}

// TestOpenSWFMatchesReadSWF pins decoder equivalence on a submit-ordered,
// dependency-free log — the regime where the single-pass stream and the
// sort-then-renumber materialized reader agree exactly.
func TestOpenSWFMatchesReadSWF(t *testing.T) {
	raw := []byte("; header\n" +
		"1 0 -1 100 64 -1 2048 64 200 4096 1 3 -1 -1 -1 -1 -1 -1\n" +
		"2 50 -1 60 8 -1 -1 8 60 -1 1 4 -1 -1 -1 -1 -1 -1\n" +
		"3 50 -1 3600 128 -1 -1 128 7200 -1 0 5 -1 -1 -1 -1 -1 -1\n" +
		"4 90 -1 600 16 -1 1024 16 900 2048 1 6 -1 -1 -1 -1 -1 -1\n")
	for _, opts := range []SWFOptions{
		{},
		{CoresPerNode: 4, SkipFailed: true},
		{MemoryAsDim: "mem_kb", MaxJobs: 3},
	} {
		want, err := ReadSWF(bytes.NewReader(raw), opts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "log.swf")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenSWF(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("opts %+v: streaming SWF decode differs from ReadSWF:\n%v\nvs\n%v", opts, got, want)
		}
	}
}

// TestSWFSourceClampsDisorder: mild timestamp jitter is clamped to the
// running maximum (the stream's analogue of the materialized sort).
func TestSWFSourceClampsDisorder(t *testing.T) {
	raw := []byte(
		"1 100 -1 60 4 -1 -1 4 60 -1 1 1 -1 -1 -1 -1 -1 -1\n" +
			"2 40 -1 60 4 -1 -1 4 60 -1 1 1 -1 -1 -1 -1 -1 -1\n")
	got, err := Collect(NewSWFSource(bytes.NewReader(raw), SWFOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].SubmitTime != 100 {
		t.Fatalf("disordered submit not clamped: %+v", got)
	}
	if err := job.ValidateWorkload(got); err != nil {
		t.Fatal(err)
	}
}

// TestGenSource checks the streaming generator's contract invariants and
// its load self-calibration.
func TestGenSource(t *testing.T) {
	sys := testStreamSystem()
	cfg := GenConfig{System: sys, Jobs: 4000, Seed: 11, DependencyFraction: 0.1, BBDrainGBps: 2, TargetLoad: 1.0}
	jobs, err := Collect(GenSource(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != cfg.Jobs {
		t.Fatalf("%d jobs, want %d", len(jobs), cfg.Jobs)
	}
	if err := job.ValidateWorkload(jobs); err != nil {
		t.Fatal(err)
	}
	deps := 0
	for i, j := range jobs {
		if j.ID != i {
			t.Fatalf("jobs[%d].ID = %d, want dense", i, j.ID)
		}
		if i > 0 && j.SubmitTime < jobs[i-1].SubmitTime {
			t.Fatalf("submit order broken at %d", i)
		}
		if len(j.Deps) > 0 {
			deps++
			if j.Deps[0] >= j.ID {
				t.Fatalf("job %d dep %d not earlier", j.ID, j.Deps[0])
			}
		}
		if bb := j.Demand.BB(); bb > 0 && j.StageOutSec != int64(float64(bb)/cfg.BBDrainGBps) {
			t.Fatalf("job %d stage-out %d inconsistent with bb %d", j.ID, j.StageOutSec, bb)
		}
	}
	if deps == 0 {
		t.Fatal("DependencyFraction produced no deps")
	}
	// Offered load should self-calibrate near the target.
	st := ComputeStats(jobs)
	load := float64(st.TotalNodeSeconds) / (float64(sys.Cluster.Nodes) * float64(st.HorizonSec))
	if load < 0.7*cfg.TargetLoad || load > 1.3*cfg.TargetLoad {
		t.Fatalf("offered load %.3f, want within 30%% of %.1f", load, cfg.TargetLoad)
	}
	// Determinism.
	again, err := Collect(GenSource(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, again) {
		t.Fatal("GenSource not deterministic")
	}
}

// TestSourceCombinators covers LimitSource, StageOutSource, and the
// streaming variant pipeline.
func TestSourceCombinators(t *testing.T) {
	sys := testStreamSystem()
	w := Generate(GenConfig{System: sys, Jobs: 200, Seed: 21})

	limited, err := Collect(LimitSource(SourceOf(w), 25))
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 25 {
		t.Fatalf("LimitSource yielded %d jobs, want 25", len(limited))
	}

	// StageOutSource must match the materialized WithStageOut per job.
	want := WithStageOut(w, 2)
	got, err := Collect(StageOutSource(SourceOf(w), 2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Jobs) {
		t.Fatal("StageOutSource differs from WithStageOut")
	}

	// ExpandBBSource raises the BB-requesting fraction toward the target.
	floor5, _ := EstimateBBFloors(sys, 21)
	expanded, err := Collect(ExpandBBSource(SourceOf(w), sys, 0.75, floor5, 21))
	if err != nil {
		t.Fatal(err)
	}
	base, exp := ComputeStats(w.Jobs), ComputeStats(expanded)
	if exp.BBJobs <= base.BBJobs {
		t.Fatalf("ExpandBBSource did not add BB jobs (%d -> %d)", base.BBJobs, exp.BBJobs)
	}
	frac := float64(exp.BBJobs) / float64(len(expanded))
	if frac < 0.55 || frac > 0.95 {
		t.Fatalf("expanded BB fraction %.2f, want near 0.75", frac)
	}
	// Preserve the horizon through combinators.
	if hz, ok := ExpandBBSource(SourceOf(w), sys, 0.75, floor5, 21).(Horizoner); !ok {
		t.Fatal("combinator lost the Horizoner refinement")
	} else if v, known := hz.Horizon(); !known || v != ComputeStats(w.Jobs).HorizonSec {
		t.Fatalf("combinator horizon %d,%v", v, known)
	}

	// The full variant pipeline: S5 switches to the SSD system and every
	// job carries an SSD request the SSD machine can host.
	src, ssdSys, name, err := ApplyVariantSource(SourceOf(w), sys, "s5", 21)
	if err != nil {
		t.Fatal(err)
	}
	if name != sys.Cluster.Name+"-S5" {
		t.Fatalf("variant name %q", name)
	}
	if len(ssdSys.Cluster.SSDClasses) == 0 {
		t.Fatal("S5 variant did not switch to the SSD system")
	}
	ssdJobs, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range ssdJobs {
		if j.Demand.SSDPerNode() <= 0 || j.Demand.SSDPerNode() > 256 {
			t.Fatalf("job %d SSD request %d outside (0,256]", j.ID, j.Demand.SSDPerNode())
		}
	}
	if _, _, _, err := ApplyVariantSource(SourceOf(w), sys, "S9", 21); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

// BenchmarkCSVSourceDecode drains a generated 200k-job CSV held in memory
// through NewCSVSource: the decoder alone, with no file and no read-ahead.
func BenchmarkCSVSourceDecode(b *testing.B) {
	const jobs = 200_000
	raw := generatedCSV(b, jobs)
	b.ReportAllocs()
	for b.Loop() {
		src, err := NewCSVSource(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for ; ; n++ {
			if _, err := src.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		if n != jobs {
			b.Fatalf("drained %d jobs, want %d", n, jobs)
		}
	}
	b.ReportMetric(float64(b.N*jobs)/b.Elapsed().Seconds(), "jobs/s")
}
