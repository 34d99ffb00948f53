package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"bbsched/internal/job"
)

func smallCori() SystemModel  { return Scale(Cori(), 64) }  // ~188 nodes
func smallTheta() SystemModel { return Scale(Theta(), 32) } // ~137 nodes

func TestSystemModelsMatchTable2(t *testing.T) {
	c := Cori()
	if c.Cluster.Nodes != 12076 {
		t.Errorf("Cori nodes = %d, want 12076", c.Cluster.Nodes)
	}
	if c.Cluster.BurstBufferGB != 1800000 {
		t.Errorf("Cori BB = %d GB, want 1.8 PB", c.Cluster.BurstBufferGB)
	}
	if c.Policy != FCFS || c.Capability {
		t.Error("Cori should be FCFS capacity computing")
	}
	th := Theta()
	if th.Cluster.Nodes != 4392 {
		t.Errorf("Theta nodes = %d, want 4392", th.Cluster.Nodes)
	}
	if th.Cluster.BurstBufferGB != 2160000 {
		t.Errorf("Theta BB = %d GB, want 2.16 PB projected", th.Cluster.BurstBufferGB)
	}
	if th.Policy != WFP || !th.Capability {
		t.Error("Theta should be WFP capability computing")
	}
}

func TestScale(t *testing.T) {
	s := Scale(Cori(), 64)
	if s.Cluster.Nodes != 12076/64 {
		t.Errorf("scaled nodes = %d", s.Cluster.Nodes)
	}
	if s.Cluster.BurstBufferGB != 1800000/64 {
		t.Errorf("scaled bb = %d", s.Cluster.BurstBufferGB)
	}
	if same := Scale(Cori(), 1); same.Cluster.Nodes != 12076 {
		t.Error("factor 1 should be identity")
	}
}

func TestWithSSDSplitsNodes(t *testing.T) {
	m := WithSSD(smallTheta())
	if len(m.Cluster.SSDClasses) != 2 {
		t.Fatalf("classes = %d, want 2", len(m.Cluster.SSDClasses))
	}
	total := m.Cluster.SSDClasses[0].Count + m.Cluster.SSDClasses[1].Count
	if total != m.Cluster.Nodes {
		t.Errorf("class counts %d != nodes %d", total, m.Cluster.Nodes)
	}
	if err := m.Cluster.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateValidWorkload(t *testing.T) {
	for _, sys := range []SystemModel{smallCori(), smallTheta()} {
		w := Generate(GenConfig{System: sys, Jobs: 500, Seed: 1})
		if len(w.Jobs) != 500 {
			t.Fatalf("%s: generated %d jobs", sys.Cluster.Name, len(w.Jobs))
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: %v", sys.Cluster.Name, err)
		}
	}
}

// TestJobsHash: the hash is a function of the trace fields alone — a deep
// copy hashes alike — and each trace field of any one job moves it, as
// does a job dropped off the end. A value moved across a length prefix
// (a user name's last byte into the next one) moves it too.
func TestJobsHash(t *testing.T) {
	w := Generate(GenConfig{System: smallTheta(), Jobs: 50, Seed: 3, DependencyFraction: 0.3})
	want := JobsHash(w.Jobs)
	if got := JobsHash(w.Clone().Jobs); got != want {
		t.Fatal("a deep copy of the jobs hashes differently")
	}
	for _, tc := range []struct {
		name   string
		mutate func(*job.Job)
	}{
		{"ID", func(j *job.Job) { j.ID++ }},
		{"user", func(j *job.Job) { j.User += "x" }},
		{"submit", func(j *job.Job) { j.SubmitTime++ }},
		{"runtime", func(j *job.Job) { j.Runtime++ }},
		{"walltime", func(j *job.Job) { j.WalltimeEst++ }},
		{"demand", func(j *job.Job) { j.Demand.Res[job.BurstBufferGB]++ }},
		{"extra dimension", func(j *job.Job) { j.Demand.Res = append(j.Demand.Res, 0) }},
		{"stage-out", func(j *job.Job) { j.StageOutSec++ }},
		{"dependency", func(j *job.Job) { j.Deps = append(j.Deps, 0) }},
	} {
		c := w.Clone()
		tc.mutate(c.Jobs[17])
		if JobsHash(c.Jobs) == want {
			t.Errorf("changing job 17's %s leaves the hash as it was", tc.name)
		}
	}
	if JobsHash(w.Jobs[:49]) == want {
		t.Error("dropping the last job leaves the hash as it was")
	}
	c := w.Clone()
	c.Jobs[0].User, c.Jobs[1].User = "ab", "c"
	d := w.Clone()
	d.Jobs[0].User, d.Jobs[1].User = "a", "bc"
	if JobsHash(c.Jobs) == JobsHash(d.Jobs) {
		t.Error("moving a byte from one user name to the next leaves the hash as it was")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{System: smallTheta(), Jobs: 200, Seed: 7})
	b := Generate(GenConfig{System: smallTheta(), Jobs: 200, Seed: 7})
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if !ja.Demand.Equal(jb.Demand) || ja.SubmitTime != jb.SubmitTime ||
			ja.Runtime != jb.Runtime || ja.WalltimeEst != jb.WalltimeEst || ja.User != jb.User {
			t.Fatalf("job %d differs between identical seeds", i)
		}
	}
	c := Generate(GenConfig{System: smallTheta(), Jobs: 200, Seed: 8})
	diff := 0
	for i := range a.Jobs {
		if !a.Jobs[i].Demand.Equal(c.Jobs[i].Demand) || a.Jobs[i].Runtime != c.Jobs[i].Runtime {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestCapabilityJobSizes(t *testing.T) {
	w := Generate(GenConfig{System: smallTheta(), Jobs: 1000, Seed: 3})
	min := w.System.Cluster.Nodes
	for _, j := range w.Jobs {
		if n := j.Demand.NodeCount(); n < min {
			min = n
		}
	}
	// Theta jobs are large relative to the machine (capability computing):
	// the minimum bucket (128 of 4392) maps to ~1/34 of the scaled machine.
	if min < w.System.Cluster.Nodes/40 {
		t.Errorf("capability workload has tiny job: %d nodes on %d-node system", min, w.System.Cluster.Nodes)
	}
}

func TestCapacityJobSizesSkewSmall(t *testing.T) {
	w := Generate(GenConfig{System: smallCori(), Jobs: 2000, Seed: 3})
	st := ComputeStats(w.Jobs)
	if st.MedianNodes > 16 {
		t.Errorf("capacity workload median job size = %d nodes, want small", st.MedianNodes)
	}
}

func TestBBFraction(t *testing.T) {
	w := Generate(GenConfig{System: smallTheta(), Jobs: 4000, Seed: 5})
	st := ComputeStats(w.Jobs)
	frac := float64(st.BBJobs) / float64(st.Jobs)
	if math.Abs(frac-0.1718) > 0.03 {
		t.Errorf("Theta BB fraction = %.4f, want ~0.1718", frac)
	}
}

func TestOfferedLoadCalibration(t *testing.T) {
	w := Generate(GenConfig{System: smallCori(), Jobs: 3000, Seed: 9, TargetLoad: 1.0})
	st := ComputeStats(w.Jobs)
	load := float64(st.TotalNodeSeconds) / (float64(w.System.Cluster.Nodes) * float64(st.HorizonSec))
	// Weibull interarrival noise allows some slack.
	if load < 0.7 || load > 1.4 {
		t.Errorf("offered load = %.3f, want ~1.0", load)
	}
}

func TestExpandBBFractions(t *testing.T) {
	base := Generate(GenConfig{System: smallTheta(), Jobs: 2000, Seed: 11})
	for _, tc := range []struct {
		frac  float64
		floor int64
	}{{0.50, 100}, {0.75, 400}} {
		w := ExpandBB(base, "X", tc.frac, tc.floor, 99)
		st := ComputeStats(w.Jobs)
		got := float64(st.BBJobs) / float64(st.Jobs)
		if math.Abs(got-tc.frac) > 0.02 {
			t.Errorf("ExpandBB(%.2f): fraction = %.4f", tc.frac, got)
		}
		// Original jobs keep their request; base must be untouched.
		if bst := ComputeStats(base.Jobs); float64(bst.BBJobs)/float64(bst.Jobs) > 0.3 {
			t.Fatal("ExpandBB mutated its input workload")
		}
	}
}

func TestExpandBBFloorRespected(t *testing.T) {
	base := Generate(GenConfig{System: smallTheta(), Jobs: 1000, Seed: 13})
	origBB := map[int]int64{}
	for _, j := range base.Jobs {
		origBB[j.ID] = j.Demand.BB()
	}
	const floor = 500
	w := ExpandBB(base, "X", 0.6, floor, 5)
	for _, j := range w.Jobs {
		if origBB[j.ID] == 0 && j.Demand.BB() > 0 {
			// Newly assigned requests must respect the floor unless they
			// were resampled from an (empty-below-floor) original pool.
			if j.Demand.BB() < floor {
				// resampling pool draws are themselves >= floor, so this
				// is always a violation.
				t.Fatalf("job %d assigned %d GB below floor %d", j.ID, j.Demand.BB(), floor)
			}
		}
	}
}

func TestS3LargerThanS1(t *testing.T) {
	// Per Fig. 5, S3/S4 (20 TB floor) carry more aggregate volume than
	// S1/S2 (5 TB floor) at the same job fraction.
	base := Generate(GenConfig{System: smallTheta(), Jobs: 2000, Seed: 17})
	s1 := ExpandBB(base, "S1", 0.5, 200, 21)
	s3 := ExpandBB(base, "S3", 0.5, 800, 23)
	v1 := ComputeStats(s1.Jobs).TotalBBGB
	v3 := ComputeStats(s3.Jobs).TotalBBGB
	if v3 <= v1 {
		t.Errorf("S3 volume %d <= S1 volume %d", v3, v1)
	}
}

func TestAddSSDMix(t *testing.T) {
	base := Generate(GenConfig{System: smallTheta(), Jobs: 3000, Seed: 19})
	for _, tc := range []struct {
		mix  SSDMix
		want float64
	}{{S5, 0.8}, {S6, 0.5}, {S7, 0.2}} {
		w := AddSSD(base, "X", tc.mix, 31)
		small := 0
		for _, j := range w.Jobs {
			ssd := j.Demand.SSDPerNode()
			if ssd < 1 || ssd > 256 {
				t.Fatalf("ssd request %d out of range", ssd)
			}
			if ssd <= 128 {
				small++
			}
		}
		got := float64(small) / float64(len(w.Jobs))
		if math.Abs(got-tc.want) > 0.03 {
			t.Errorf("mix %.1f: small fraction = %.3f", tc.mix.SmallFrac, got)
		}
		if len(w.System.Cluster.SSDClasses) != 2 {
			t.Error("AddSSD should target the SSD-equipped system")
		}
	}
}

func TestMatrixProducesTenWorkloads(t *testing.T) {
	ws := Matrix(smallCori(), smallTheta(), 300, 1)
	if len(ws) != 10 {
		t.Fatalf("matrix size = %d, want 10", len(ws))
	}
	names := map[string]bool{}
	for _, w := range ws {
		names[w.Name] = true
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
	}
	for _, want := range []string{"Cori/64-Original", "Cori/64-S1", "Cori/64-S4", "Theta/32-Original", "Theta/32-S3"} {
		if !names[want] {
			t.Errorf("missing workload %q (have %v)", want, names)
		}
	}
}

func TestSSDMatrixProducesSixWorkloads(t *testing.T) {
	ws := SSDMatrix(smallCori(), smallTheta(), 200, 1)
	if len(ws) != 6 {
		t.Fatalf("ssd matrix size = %d, want 6", len(ws))
	}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, j := range w.Jobs {
			if j.Demand.SSDPerNode() == 0 {
				t.Fatalf("%s: job %d has no SSD request", w.Name, j.ID)
			}
		}
	}
}

// TestApplyVariantMatchesMatrix: the variant registry reproduces the
// paper matrices cell for cell (same fractions, floors, seed offsets).
func TestApplyVariantMatchesMatrix(t *testing.T) {
	base := Generate(GenConfig{System: smallTheta(), Jobs: 200, Seed: 1})
	base.Name = smallTheta().Cluster.Name + "-Original"
	byName := map[string]Workload{}
	for _, w := range Matrix(smallCori(), smallTheta(), 200, 1) {
		byName[w.Name] = w
	}
	for _, w := range SSDMatrix(smallCori(), smallTheta(), 200, 1) {
		byName[w.Name] = w
	}
	for _, v := range Variants() {
		got, err := ApplyVariant(base, v, 1)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		want, ok := byName[got.Name]
		if !ok {
			t.Fatalf("%s: name %q not produced by the matrices", v, got.Name)
		}
		if len(got.Jobs) != len(want.Jobs) {
			t.Fatalf("%s: %d jobs vs matrix %d", v, len(got.Jobs), len(want.Jobs))
		}
		for i, j := range got.Jobs {
			if !j.Demand.Equal(want.Jobs[i].Demand) || j.SubmitTime != want.Jobs[i].SubmitTime {
				t.Fatalf("%s: job %d differs from matrix build", v, i)
			}
		}
	}
	// Case-insensitive, and unknown variants rejected.
	if _, err := ApplyVariant(base, "s4", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyVariant(base, "S99", 1); err == nil {
		t.Fatal("unknown variant accepted")
	}
	if !IsSSDVariant("s6") || IsSSDVariant("S4") || IsSSDVariant("original") {
		t.Fatal("IsSSDVariant misclassifies")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	w := Generate(GenConfig{System: smallTheta(), Jobs: 150, Seed: 23, DependencyFraction: 0.2})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, w.Jobs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(w.Jobs) {
		t.Fatalf("round trip job count %d != %d", len(back), len(w.Jobs))
	}
	for i, j := range w.Jobs {
		b := back[i]
		if b.ID != j.ID || b.SubmitTime != j.SubmitTime || b.Runtime != j.Runtime ||
			b.WalltimeEst != j.WalltimeEst || !b.Demand.Equal(j.Demand) || b.User != j.User {
			t.Fatalf("job %d mismatch after round trip:\n got %+v\nwant %+v", i, b, j)
		}
		if len(b.Deps) != len(j.Deps) {
			t.Fatalf("job %d deps mismatch", i)
		}
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("id,oops\n")); err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestReadCSVRejectsBadRecord(t *testing.T) {
	good := "id,user,submit,runtime,walltime,nodes,bb_gb,ssd_gb_per_node,stageout,deps\n"
	rows := []string{
		"x,u,0,10,10,1,0,0,0,\n",    // bad id
		"1,u,0,-5,10,1,0,0,0,\n",    // bad runtime
		"1,u,0,10,10,0,0,0,0,\n",    // zero nodes
		"1,u,0,10,10,1,0,0,0,abc\n", // bad dep
		"1,u,0,10,10,1,0,0,-4,\n",   // negative stage-out
		"1,u,0,10,10,1,0,0,60,\n",   // stage-out without BB request
	}
	for _, row := range rows {
		if _, err := ReadCSV(strings.NewReader(good + row)); err == nil {
			t.Errorf("record %q accepted", row)
		}
	}
}

func TestBBHistogram(t *testing.T) {
	jobs := []*job.Job{
		job.MustNew(0, 0, 1, 1, job.NewDemand(1, 5, 0)),
		job.MustNew(1, 0, 1, 1, job.NewDemand(1, 15, 0)),
		job.MustNew(2, 0, 1, 1, job.NewDemand(1, 19, 0)),
		job.MustNew(3, 0, 1, 1, job.NewDemand(1, 0, 0)), // excluded
	}
	h := BBHistogram(jobs, 10)
	if h.NumJobs() != 3 {
		t.Fatalf("binned jobs = %d, want 3", h.NumJobs())
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.TotalGB != 39 {
		t.Fatalf("total = %d, want 39", h.TotalGB)
	}
	if !strings.Contains(h.String(), "10,20,2") {
		t.Errorf("String() = %q", h.String())
	}
}

func TestBBHistogramPanicsOnBadBin(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero bin width")
		}
	}()
	BBHistogram(nil, 0)
}

func TestHistogramPropertyTotalMatchesSum(t *testing.T) {
	f := func(sizes []uint16) bool {
		jobs := make([]*job.Job, len(sizes))
		var want int64
		for i, s := range sizes {
			bb := int64(s)
			jobs[i] = job.MustNew(i, 0, 1, 1, job.NewDemand(1, bb, 0))
			want += bb
		}
		h := BBHistogram(jobs, 100)
		return h.TotalGB == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDependencyGeneration(t *testing.T) {
	w := Generate(GenConfig{System: smallCori(), Jobs: 500, Seed: 29, DependencyFraction: 0.3})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	withDeps := 0
	for _, j := range w.Jobs {
		withDeps += len(j.Deps)
	}
	if withDeps < 100 || withDeps > 200 {
		t.Errorf("jobs with deps = %d, want ~150", withDeps)
	}
}

func TestWorkloadCloneIndependent(t *testing.T) {
	w := Generate(GenConfig{System: smallCori(), Jobs: 50, Seed: 31})
	c := w.Clone()
	c.Jobs[0].Demand.Res[0]++
	c.Jobs[1].SubmitTime = -1
	if w.Jobs[0].Demand.Res[0] == c.Jobs[0].Demand.Res[0] || w.Jobs[1].SubmitTime == -1 {
		t.Fatal("Clone shares jobs")
	}
}

func TestValidateCatchesOversizedJob(t *testing.T) {
	w := Generate(GenConfig{System: smallCori(), Jobs: 10, Seed: 37})
	w.Jobs[0].Demand.Set(job.Nodes, int64(w.System.Cluster.Nodes+1))
	if err := w.Validate(); err == nil {
		t.Fatal("oversized job accepted")
	}
}

func TestValidateCatchesUnsortedJobs(t *testing.T) {
	w := Generate(GenConfig{System: smallCori(), Jobs: 10, Seed: 37})
	w.Jobs[0].SubmitTime = w.Jobs[9].SubmitTime + 100
	if err := w.Validate(); err == nil {
		t.Fatal("unsorted workload accepted")
	}
}

func TestComputeStats(t *testing.T) {
	jobs := []*job.Job{
		job.MustNew(0, 0, 100, 100, job.NewDemand(10, 50, 0)),
		job.MustNew(1, 500, 200, 200, job.NewDemand(20, 0, 0)),
	}
	st := ComputeStats(jobs)
	if st.Jobs != 2 || st.BBJobs != 1 || st.TotalBBGB != 50 || st.MaxBBGB != 50 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TotalNodeSeconds != 10*100+20*200 {
		t.Fatalf("node seconds = %d", st.TotalNodeSeconds)
	}
	if st.HorizonSec != 500 {
		t.Fatalf("horizon = %d", st.HorizonSec)
	}
}
