package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// sampleSWF is a hand-built log exercising comments, completed/failed
// jobs, requested-vs-used processors, and a dependency chain.
const sampleSWF = `; Sample SWF trace
; MaxProcs: 1024
1 0 10 3600 64 -1 -1 128 7200 -1 1 7 -1 -1 -1 -1 -1 -1
2 100 0 1800 32 -1 -1 -1 -1 -1 1 8 -1 -1 -1 -1 -1 -1
3 200 5 600 16 -1 -1 16 900 -1 0 9 -1 -1 -1 -1 -1 -1
4 300 0 60 8 -1 -1 8 120 -1 1 7 -1 -1 -1 -1 1 10
`

func TestReadSWF(t *testing.T) {
	jobs, err := ReadSWF(strings.NewReader(sampleSWF), SWFOptions{CoresPerNode: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("jobs = %d, want 4", len(jobs))
	}
	j := jobs[0]
	if j.Demand.NodeCount() != 4 { // 128 req procs / 32 cores
		t.Errorf("job 0 nodes = %d, want 4", j.Demand.NodeCount())
	}
	if j.Runtime != 3600 || j.WalltimeEst != 7200 {
		t.Errorf("job 0 times = %d/%d", j.Runtime, j.WalltimeEst)
	}
	if j.User != "user007" {
		t.Errorf("job 0 user = %q", j.User)
	}
	// Job 2 has no requested procs: falls back to used (32/32 = 1 node),
	// and no req time: walltime = runtime.
	if jobs[1].Demand.NodeCount() != 1 || jobs[1].WalltimeEst != 1800 {
		t.Errorf("job 1 = %d nodes, walltime %d", jobs[1].Demand.NodeCount(), jobs[1].WalltimeEst)
	}
	// Job 4 depends on SWF job 1 → our job 0.
	last := jobs[3]
	if len(last.Deps) != 1 || last.Deps[0] != 0 {
		t.Errorf("dependency not mapped: %v", last.Deps)
	}
}

// TestReadSWFDepsSurviveSubmitSort: records out of submit order are
// renumbered by the sort, and a dependency must follow its target through
// that renumbering exactly once. SWF job 3 depends on SWF job 2, which
// sorts to ID 0; remapping inside the renumbering loop used to chain the
// rewrite on to ID 1 (SWF job 1).
func TestReadSWFDepsSurviveSubmitSort(t *testing.T) {
	const log = `1 100 0 60 1 -1 -1 1 60 -1 1 1 -1 -1 -1 -1 -1 -1
2 0 0 60 1 -1 -1 1 60 -1 1 2 -1 -1 -1 -1 -1 -1
3 200 0 60 1 -1 -1 1 60 -1 1 3 -1 -1 -1 -1 2 -1
`
	jobs, err := ReadSWF(strings.NewReader(log), SWFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 || jobs[0].User != "user002" || jobs[1].User != "user001" {
		t.Fatalf("jobs not in submit order: %v", jobs)
	}
	if d := jobs[2].Deps; len(d) != 1 || d[0] != 0 {
		t.Fatalf("job 2 deps = %v, want [0] (SWF job 2)", d)
	}
}

func TestReadSWFSkipFailed(t *testing.T) {
	jobs, err := ReadSWF(strings.NewReader(sampleSWF), SWFOptions{CoresPerNode: 32, SkipFailed: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d, want 3 (status-0 job dropped)", len(jobs))
	}
}

func TestReadSWFMaxJobs(t *testing.T) {
	jobs, err := ReadSWF(strings.NewReader(sampleSWF), SWFOptions{MaxJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(jobs))
	}
}

func TestReadSWFRejectsMalformed(t *testing.T) {
	bad := []string{
		"1 0 10 3600 64\n", // short line
		"x 0 10 3600 64 -1 -1 128 7200 -1 1 7 -1 -1 -1 -1 -1 -1\n", // non-numeric
	}
	for _, s := range bad {
		if _, err := ReadSWF(strings.NewReader(s), SWFOptions{}); err == nil {
			t.Errorf("malformed SWF %q accepted", s)
		}
	}
}

func TestReadSWFClampsUnderestimates(t *testing.T) {
	// Requested time below actual runtime must clamp up.
	s := "1 0 0 3600 4 -1 -1 4 600 -1 1 1 -1 -1 -1 -1 -1 -1\n"
	jobs, err := ReadSWF(strings.NewReader(s), SWFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].WalltimeEst != 3600 {
		t.Fatalf("walltime = %d, want clamped to runtime", jobs[0].WalltimeEst)
	}
}

func TestSWFRoundTrip(t *testing.T) {
	sys := Scale(Theta(), 64)
	w := Generate(GenConfig{System: sys, Jobs: 100, Seed: 9, DependencyFraction: 0.2})
	var buf bytes.Buffer
	if err := WriteSWF(&buf, w.Jobs, 64); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSWF(&buf, SWFOptions{CoresPerNode: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(w.Jobs) {
		t.Fatalf("round trip = %d jobs, want %d", len(back), len(w.Jobs))
	}
	for i, orig := range w.Jobs {
		b := back[i]
		if b.Demand.NodeCount() != orig.Demand.NodeCount() {
			t.Fatalf("job %d nodes %d != %d", i, b.Demand.NodeCount(), orig.Demand.NodeCount())
		}
		if b.Runtime != orig.Runtime || b.SubmitTime != orig.SubmitTime {
			t.Fatalf("job %d times differ", i)
		}
		if len(b.Deps) != len(orig.Deps) {
			t.Fatalf("job %d deps %v != %v", i, b.Deps, orig.Deps)
		}
	}
}

func TestSWFImportThenExpandBB(t *testing.T) {
	// The paper's own flow: a BB-less log gains synthetic BB demands.
	jobs, err := ReadSWF(strings.NewReader(sampleSWF), SWFOptions{CoresPerNode: 32})
	if err != nil {
		t.Fatal(err)
	}
	sys := Scale(Theta(), 64)
	w := Workload{Name: "swf", System: sys, Jobs: jobs}
	expanded := ExpandBB(w, "swf-S1", 1.0, 10, 3)
	n := 0
	for _, j := range expanded.Jobs {
		if j.Demand.BB() > 0 {
			n++
		}
	}
	if n != len(jobs) {
		t.Fatalf("expanded BB jobs = %d, want all %d", n, len(jobs))
	}
}

// TestSWFSourceAllocsPerJob holds the SWF stream's allocations per job: a
// 20 000-job log drained through NewSWFSource. It measured 4.00 while
// every job formatted its user name, 3.00 once a source shared one name
// per user, and 1.003 once a line was split in place instead of taken as
// a string and split by strings.Fields (the packed job is left), and the
// ceiling is that plus 20%.
func TestSWFSourceAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const jobs = 20_000
	w := Generate(GenConfig{System: testStreamSystem(), Jobs: jobs, Seed: 4})
	var log bytes.Buffer
	if err := WriteSWF(&log, w.Jobs, 1); err != nil {
		t.Fatal(err)
	}
	var n int
	var err error
	allocs := testing.AllocsPerRun(1, func() {
		src := NewSWFSource(bytes.NewReader(log.Bytes()), SWFOptions{})
		for n = 0; ; n++ {
			if _, err = src.Next(); err != nil {
				break
			}
		}
	})
	if err != io.EOF || n != jobs {
		t.Fatalf("drained %d jobs, then %v", n, err)
	}
	perJob := allocs / jobs
	t.Logf("swf: %.0f allocs over %d jobs (%.3f allocs/job, ceiling 1.20)", allocs, jobs, perJob)
	if perJob > 1.20 {
		t.Fatalf("an SWF drain makes %.3f allocs/job, ceiling 1.20", perJob)
	}
}
