package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"

	"bbsched/internal/checkpoint"
	"bbsched/internal/job"
	"bbsched/internal/registry"
	"bbsched/internal/sched"
	"bbsched/internal/trace"
)

// The checkpoint equivalence suite pins the tentpole claim: a simulator
// checkpointed at ANY event boundary and restored into a fresh process
// continues with a byte-identical event stream and produces the exact
// Result of an uninterrupted run. The golden variant below chains a
// checkpoint+restore cycle at EVERY event instant of all 23 golden
// (scenario, method) pairs and still must match the pinned captures.

// runChained drives a golden run that round-trips through Checkpoint and
// Restore at every event boundary: before each Step the state is
// serialized and a brand-new simulator is rebuilt from the snapshot, with
// the event log continuing into the same hash.
func runChained(t *testing.T, w trace.Workload, m sched.Method, extra ...Option) (goldenResult, string, int) {
	t.Helper()
	h := sha256.New()
	ch := &countingHash{h: h}
	opts := goldenOpts(1, append(extra, WithEventLog(ch))...)
	s, err := NewSimulator(w, m, opts...)
	if err != nil {
		t.Fatalf("%s/%s: %v", w.Name, m.Name(), err)
	}
	var buf bytes.Buffer
	for {
		buf.Reset()
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatalf("%s/%s: checkpoint at t=%d: %v", w.Name, m.Name(), s.Now(), err)
		}
		s, err = Restore(w, m, bytes.NewReader(buf.Bytes()), opts...)
		if err != nil {
			t.Fatalf("%s/%s: restore at t=%d: %v", w.Name, m.Name(), s.Now(), err)
		}
		more, err := s.Step()
		if err != nil {
			t.Fatalf("%s/%s: step after restore: %v", w.Name, m.Name(), err)
		}
		if !more {
			break
		}
	}
	res, err := s.Result()
	if err != nil {
		t.Fatalf("%s/%s: result after chained restore: %v", w.Name, m.Name(), err)
	}
	return summarize(res), hex.EncodeToString(h.Sum(nil)), ch.lines
}

// TestGoldenCheckpointEquivalence replays every golden (scenario, method)
// pair with a checkpoint+restore cycle at every event instant and
// requires the event-stream hash, line count, and every pinned Result
// float to equal the uninterrupted serial run's. The LP-backed methods
// join each scenario's roster here though no golden file pins them: a
// restore holds no solver state, so a backend that carried any from one
// pass to the next would diverge under it. Short mode keeps one cheap and
// one solver-backed method per scenario, and theta-wfp-s4/Weighted_LP;
// the full run covers all 23 golden pairs and the six LP ones. One more
// case runs theta-wfp-s4/Weighted_LP at a window of 1 024 jobs, which
// holds the whole queue, and a starvation bound of 50: the window passes
// the queue counts for its jobs but has not written into their WindowAge
// must cross every snapshot for forcing to start the same jobs.
func TestGoldenCheckpointEquivalence(t *testing.T) {
	check := func(t *testing.T, w trace.Workload, m sched.Method, extra ...Option) {
		wantRes, wantEvents, wantLines := runGoldenSerial(t, w, m, extra...)
		gotRes, gotEvents, gotLines := runChained(t, w, m, extra...)
		if gotEvents != wantEvents || gotLines != wantLines {
			t.Errorf("event stream diverged under chained restore: %d lines hash %s, want %d lines hash %s",
				gotLines, gotEvents, wantLines, wantEvents)
		}
		if gotRes != wantRes {
			t.Errorf("result diverged under chained restore:\n  got:  %+v\n  want: %+v", gotRes, wantRes)
		}
	}
	for _, sc := range goldenScenarios() {
		w := sc.build()
		for _, name := range slices.Concat(sc.methods, []string{"Weighted_LP", "Constrained_LP"}) {
			lpCase := sc.name == "theta-wfp-s4" && name == "Weighted_LP"
			if testing.Short() && name != "Baseline" && name != "BBSched" && !lpCase {
				continue
			}
			m, err := registry.New(name, goldenGA(), sc.ssd)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(sc.name+"/"+name, func(t *testing.T) { check(t, w, m) })
			if lpCase {
				t.Run(sc.name+"/"+name+"/window-1024", func(t *testing.T) { check(t, w, m, WithWindow(1024, 50)) })
			}
		}
	}
}

// TestCheckpointRoundTripMaterialized takes a single mid-run checkpoint,
// restores it, runs both halves to completion, and requires the spliced
// event stream and Result to match an uninterrupted run bit-for-bit —
// the cheap fast-feedback version of the chained golden test, over the
// WFP + stage-out regime. How the jobs are supplied is not part of a
// snapshot's identity, so besides the plain round trip a snapshot of a
// run over the workload's own jobs must restore under
// WithSource(SourceOf(w)) on the job-less shell, and the reverse. The
// snapshot's job table must hold exactly the jobs its containers
// reference: a finished job is in the accumulated metrics, not on the wire.
func TestCheckpointRoundTripMaterialized(t *testing.T) {
	jobs := 1200
	if testing.Short() {
		jobs = 400
	}
	w := throughputWorkload(jobs, true)
	w.System.Policy = trace.WFP
	m := sched.BinPacking{}
	shell := trace.Workload{Name: w.Name, System: w.System}
	type supply func(log *bytes.Buffer) (trace.Workload, []Option)
	own := func(log *bytes.Buffer) (trace.Workload, []Option) {
		return w, []Option{WithSeed(7), WithEventLog(log)}
	}
	source := func(log *bytes.Buffer) (trace.Workload, []Option) {
		return shell, []Option{WithSeed(7), WithEventLog(log), WithSource(trace.SourceOf(w))}
	}

	var wantLog bytes.Buffer
	ref, err := NewSimulator(w, m, WithSeed(7), WithEventLog(&wantLog))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		from, to supply
	}{
		{"own-to-own", own, own},
		{"own-to-source", own, source},
		{"source-to-own", source, own},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var gotLog bytes.Buffer
			fw, fopts := tc.from(&gotLog)
			s, err := NewSimulator(fw, m, fopts...)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < jobs/2; i++ {
				if _, err := s.Step(); err != nil {
					t.Fatal(err)
				}
			}
			var snap bytes.Buffer
			if err := s.Checkpoint(&snap); err != nil {
				t.Fatal(err)
			}
			if s.RunningJobs() == 0 && s.QueueDepth() == 0 {
				t.Fatal("mid-run checkpoint captured an idle machine; pick a busier instant")
			}
			decoded, err := checkpoint.Decode(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			referenced := map[int64]bool{}
			for _, id := range decoded.QueueIDs {
				referenced[id] = true
			}
			for _, r := range decoded.Running {
				referenced[r.JobID] = true
			}
			for _, ev := range decoded.Events {
				referenced[ev.JobID] = true
			}
			for _, id := range decoded.PendingIDs {
				referenced[id] = true
			}
			for _, rec := range decoded.Jobs {
				if !referenced[rec.ID] {
					t.Fatalf("snapshot carries job %d (state %d), which no container references", rec.ID, rec.State)
				}
				delete(referenced, rec.ID)
			}
			if len(referenced) != 0 {
				t.Fatalf("snapshot containers reference %d jobs the job table lacks", len(referenced))
			}
			tw, topts := tc.to(&gotLog)
			restored, err := Restore(tw, m, bytes.NewReader(snap.Bytes()), topts...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotLog.Bytes(), wantLog.Bytes()) {
				t.Fatalf("spliced event stream diverges from uninterrupted run (%d vs %d bytes)", gotLog.Len(), wantLog.Len())
			}
			compareResults(t, got, want)
		})
	}
}

// streamPipeline builds the streaming-source pipeline used by the
// streaming round-trip test: a generated near-capacity Theta stream
// through ExpandBBSource, whose per-job RNG draws make it the hardest
// source to reposition (restore must replay, not fast-forward).
func streamPipeline(sys trace.SystemModel, jobs int) trace.JobSource {
	src := trace.GenSource(trace.GenConfig{System: sys, Jobs: jobs, Seed: 42, TargetLoad: 0.95})
	return trace.ExpandBBSource(src, sys, 0.75, 64, 46)
}

// TestCheckpointRoundTripStreaming checkpoints a streaming run (pull
// source + bounded-memory metrics) at two boundaries, restoring each time
// with a freshly opened source pipeline, and requires the event stream
// and Result to match an uninterrupted streaming run exactly.
func TestCheckpointRoundTripStreaming(t *testing.T) {
	jobs := 4000
	if testing.Short() {
		jobs = 1000
	}
	sys := trace.Scale(trace.Theta(), 32)
	shell := trace.Workload{Name: "Theta-stream", System: sys}
	opts := func(src trace.JobSource, log *bytes.Buffer) []Option {
		return []Option{
			WithSource(src), WithStreamingMetrics(), WithMeasurement(0, 0),
			WithSeed(1), WithEventLog(log),
		}
	}

	var wantLog bytes.Buffer
	ref, err := NewSimulator(shell, sched.Baseline{}, opts(streamPipeline(sys, jobs), &wantLog)...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var gotLog bytes.Buffer
	s, err := NewSimulator(shell, sched.Baseline{}, opts(streamPipeline(sys, jobs), &gotLog)...)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	for _, steps := range []int{jobs / 4, jobs / 4} {
		for i := 0; i < steps; i++ {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		snap.Reset()
		if err := s.Checkpoint(&snap); err != nil {
			t.Fatal(err)
		}
		// Restore always reopens the source from the top; Skip replays the
		// consumed prefix through the RNG-bearing combinators.
		s, err = Restore(shell, sched.Baseline{}, bytes.NewReader(snap.Bytes()), opts(streamPipeline(sys, jobs), &gotLog)...)
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotLog.Bytes(), wantLog.Bytes()) {
		t.Fatalf("streaming event stream diverges after restore (%d vs %d bytes)", gotLog.Len(), wantLog.Len())
	}
	compareResults(t, got, want)
}

// TestRestoreRejectsMismatchedRun pins the identity checks — a snapshot
// must refuse to restore into a run with a different workload, method, or
// seed; silently continuing a different experiment would be far worse
// than failing — and the source-position checks: a decoded snapshot whose
// done watermark or look-ahead buffer disagrees with its pulled count
// would mark unpulled jobs finished and release their dependants early —
// and the container checks: a job the queue holds but whose record (or
// the running set) says has started would sit in two containers at once,
// and a running job must have exactly one end event, naming it —
// and the done set: a job it names as finished that is still in flight
// could release a dependant early —
// and the per-job metric state: a job count
// the bucket counts, the kept waits or the sketches disagree with would
// restore cleanly and report a wrong average at the end of the run.
func TestRestoreRejectsMismatchedRun(t *testing.T) {
	w := throughputWorkload(300, false)
	s, err := NewSimulator(w, sched.Baseline{}, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := s.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	other := w
	other.Name = "other-workload"
	corrupt := func(mutate func(*checkpoint.Snapshot), opts ...Option) func() error {
		return func() error {
			decoded, err := checkpoint.Decode(bytes.NewReader(snap.Bytes()))
			if err != nil {
				return err
			}
			mutate(decoded)
			var buf bytes.Buffer
			if err := checkpoint.Encode(&buf, decoded); err != nil {
				return err
			}
			_, err = Restore(w, sched.Baseline{}, &buf, append(opts, WithSeed(7))...)
			return err
		}
	}
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"workload", func() error {
			_, err := Restore(other, sched.Baseline{}, bytes.NewReader(snap.Bytes()), WithSeed(7))
			return err
		}, "workload"},
		{"method", func() error {
			_, err := Restore(w, sched.BinPacking{}, bytes.NewReader(snap.Bytes()), WithSeed(7))
			return err
		}, "method"},
		{"seed", func() error {
			_, err := Restore(w, sched.Baseline{}, bytes.NewReader(snap.Bytes()), WithSeed(8))
			return err
		}, "seed"},
		{"negative pulled", corrupt(func(s *checkpoint.Snapshot) { s.Pulled = -1 }), "pulled"},
		{"watermark past pulled", corrupt(func(s *checkpoint.Snapshot) { s.DoneLow = s.Pulled + 1 }), "watermark"},
		{"sparse done ID unpulled", corrupt(func(s *checkpoint.Snapshot) { s.DoneSparse = append(s.DoneSparse, s.Pulled) }), "sparse"},
		{"look-ahead not the pulled tail", corrupt(func(s *checkpoint.Snapshot) { s.PendingIDs = append(s.PendingIDs, s.Pulled) }), "look-ahead"},
		{"running job also queued", corrupt(func(s *checkpoint.Snapshot) {
			s.QueueIDs = append([]int64{s.Running[0].JobID}, s.QueueIDs...)
		}), "queue holds job"},
		{"queued job marked finished", corrupt(func(s *checkpoint.Snapshot) {
			jobByID(s, s.QueueIDs[0]).State = int64(job.Finished)
		}), "queue holds job"},
		{"running job marked queued", corrupt(func(s *checkpoint.Snapshot) {
			jobByID(s, s.Running[0].JobID).State = int64(job.Queued)
		}), "running set"},
		{"running job listed twice", corrupt(func(s *checkpoint.Snapshot) {
			s.Running = append(s.Running, s.Running[0])
		}), "running set lists job"},
		{"end event dropped", corrupt(func(s *checkpoint.Snapshot) {
			i := endEvent(s, s.Running[0].JobID)
			s.Events = slices.Delete(s.Events, i, i+1)
		}), "no pending event"},
		{"end event duplicated", corrupt(func(s *checkpoint.Snapshot) {
			ev := s.Events[endEvent(s, s.Running[0].JobID)]
			ev.T++
			s.Events = append(s.Events, ev)
			sortEvents(s)
		}), "second event"},
		{"end event names a queued job", corrupt(func(s *checkpoint.Snapshot) {
			s.Events[endEvent(s, s.Running[0].JobID)].JobID = s.QueueIDs[0]
			sortEvents(s)
		}), "not running"},
		{"queued job done", corrupt(func(s *checkpoint.Snapshot) {
			s.DoneSparse = append(s.DoneSparse, s.QueueIDs[len(s.QueueIDs)-1])
		}), "done set names job"},
		{"running job done", corrupt(func(s *checkpoint.Snapshot) {
			s.DoneSparse = append(s.DoneSparse, s.Running[len(s.Running)-1].JobID)
		}), "done set names job"},
		{"watermark raised past a queued job", corrupt(func(s *checkpoint.Snapshot) {
			s.DoneLow = s.QueueIDs[0] + 1
			s.DoneSparse = slices.DeleteFunc(s.DoneSparse, func(id int64) bool { return id <= s.DoneLow })
		}), "done set names job"},
		{"watermark lowered past a finished job", corrupt(func(s *checkpoint.Snapshot) { s.DoneLow-- }), "done set leaves out"},
		{"negative stats count", corrupt(func(s *checkpoint.Snapshot) { s.Stats.N = -1 }), "negative N"},
		{"size counts off", corrupt(func(s *checkpoint.Snapshot) { s.Stats.SizeCounts[0]++ }), "SizeCounts"},
		{"BB counts off", corrupt(func(s *checkpoint.Snapshot) { s.Stats.BBCounts[0]++ }), "BBCounts"},
		{"runtime counts off", corrupt(func(s *checkpoint.Snapshot) { s.Stats.RTCounts[0]++ }), "RTCounts"},
		{"a wait too many", corrupt(func(s *checkpoint.Snapshot) { s.Stats.Waits = append(s.Stats.Waits, 0) }), "Waits"},
		{"sketch count off", corrupt(func(s *checkpoint.Snapshot) {
			s.Stats.Sketch = true
			s.Stats.P50.Count, s.Stats.P90.Count, s.Stats.P99.Count = s.Stats.N, s.Stats.N, s.Stats.N+1
		}, WithStreamingMetrics()), "P99.Count"},
		{"other metrics mode", corrupt(func(s *checkpoint.Snapshot) { s.Stats.Sketch = true }), "other metrics mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatalf("restore with mismatched %s succeeded", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRestoreChecksEveryStaticField: a snapshot record must describe the
// job it names. Over a workload's own jobs restore takes the workload's
// job, so a record that differs from it in any static field is refused —
// here the first queued job's burst buffer raised by 7 GB, its user, its
// stage-out, or a dependency on a job 100 000 IDs on, which can never
// finish. A run fed by a source builds the job from the record and holds
// it to what a pulled job must satisfy, so the dependency on a later job
// is refused there too.
func TestRestoreChecksEveryStaticField(t *testing.T) {
	w, _, snap := midRunSnapshot(t, 2000)
	shell := trace.Workload{Name: w.Name, System: w.System}
	restore := func(mutate func(*checkpoint.JobRecord), source bool) error {
		decoded, err := checkpoint.Decode(bytes.NewReader(snap))
		if err != nil {
			return err
		}
		if len(decoded.QueueIDs) == 0 {
			t.Fatal("the snapshot holds no queued job")
		}
		mutate(jobByID(decoded, decoded.QueueIDs[0]))
		var buf bytes.Buffer
		if err := checkpoint.Encode(&buf, decoded); err != nil {
			return err
		}
		if source {
			_, err = Restore(shell, sched.Baseline{}, &buf, WithSeed(1), WithSource(trace.SourceOf(w)))
		} else {
			_, err = Restore(w, sched.Baseline{}, &buf, WithSeed(1))
		}
		return err
	}
	laterDep := func(r *checkpoint.JobRecord) { r.Deps = append(r.Deps, r.ID+100_000) }
	for _, source := range []bool{false, true} {
		if err := restore(func(*checkpoint.JobRecord) {}, source); err != nil {
			t.Fatalf("source=%v: the snapshot as taken does not restore: %v", source, err)
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*checkpoint.JobRecord)
	}{
		{"burst buffer", func(r *checkpoint.JobRecord) { r.Res[job.BurstBufferGB] += 7 }},
		{"user", func(r *checkpoint.JobRecord) { r.User += "x" }},
		{"stage-out", func(r *checkpoint.JobRecord) { r.StageOutSec++ }},
		{"later dependency", laterDep},
	} {
		if err := restore(tc.mutate, false); err == nil || !strings.Contains(err.Error(), "static fields differ") {
			t.Errorf("%s: restore over the workload's jobs returned %v, want the record refused", tc.name, err)
		}
	}
	if err := restore(laterDep, true); err == nil || !strings.Contains(err.Error(), "does not reference an earlier job") {
		t.Errorf("later dependency: restore from a source returned %v, want the record refused", err)
	}
}

// FuzzRestore mutates the containers of a mid-run snapshot of a trace
// with stage-out, so that some running jobs are staging: an event's kind
// or job, a running record's job or staging flag, queue membership, the
// done watermark and the sparse done set. Each three bytes of the input
// are one mutation (which, where, by how much). Restore must refuse the
// snapshot, or return a simulator that runs to the end with no error.
func FuzzRestore(f *testing.F) {
	w := throughputWorkload(300, true)
	s, err := NewSimulator(w, sched.Baseline{}, WithSeed(7))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Step(); err != nil {
			f.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := s.Checkpoint(&snap); err != nil {
		f.Fatal(err)
	}
	if decoded, err := checkpoint.Decode(bytes.NewReader(snap.Bytes())); err != nil ||
		!slices.ContainsFunc(decoded.Running, func(r checkpoint.RunningRecord) bool { return r.Staging }) {
		f.Fatalf("the seed snapshot holds no staging job (decode error %v)", err)
	}
	f.Add([]byte{})
	for op := byte(0); op < 8; op++ {
		f.Add([]byte{op, 3, 1})
		f.Add([]byte{op, 5, 255})
	}
	f.Add([]byte{1, 2, 1, 1, 3, 255}) // two events trade jobs
	f.Add([]byte{2, 0, 1, 2, 1, 255}) // two running records trade jobs
	f.Fuzz(func(t *testing.T, muts []byte) {
		decoded, err := checkpoint.Decode(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		mutated := len(muts) >= 3
		for ; len(muts) >= 3; muts = muts[3:] {
			mutateContainers(decoded, muts[0], int(muts[1]), int64(int8(muts[2])))
		}
		sortEvents(decoded)
		var buf bytes.Buffer
		if err := checkpoint.Encode(&buf, decoded); err != nil {
			t.Fatal(err)
		}
		r, err := Restore(w, sched.Baseline{}, &buf, WithSeed(7))
		if err != nil {
			if !mutated {
				t.Fatalf("the snapshot as taken does not restore: %v", err)
			}
			return
		}
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatalf("restore accepted the snapshot, but the run fails: %v", err)
		}
	})
}

// mutateContainers applies one FuzzRestore mutation: op picks the field,
// at the record and by the amount it changes.
func mutateContainers(s *checkpoint.Snapshot, op byte, at int, by int64) {
	switch op % 8 {
	case 0:
		if len(s.Events) > 0 {
			s.Events[at%len(s.Events)].Kind = (by%3 + 3) % 3
		}
	case 1:
		if len(s.Events) > 0 {
			s.Events[at%len(s.Events)].JobID += by
		}
	case 2:
		if len(s.Running) > 0 {
			s.Running[at%len(s.Running)].JobID += by
		}
	case 3:
		if len(s.Running) > 0 {
			r := &s.Running[at%len(s.Running)]
			r.Staging = !r.Staging
		}
	case 4:
		s.QueueIDs = append(s.QueueIDs, s.DoneLow+int64(at))
	case 5:
		if len(s.QueueIDs) > 0 {
			s.QueueIDs = slices.Delete(s.QueueIDs, at%len(s.QueueIDs), at%len(s.QueueIDs)+1)
		}
	case 6:
		s.DoneLow += by
	case 7:
		if by >= 0 || len(s.DoneSparse) == 0 {
			s.DoneSparse = append(s.DoneSparse, s.DoneLow+int64(at))
		} else {
			s.DoneSparse = slices.Delete(s.DoneSparse, at%len(s.DoneSparse), at%len(s.DoneSparse)+1)
		}
	}
}

// endEvent returns the index of running job id's end or burst-buffer
// release event.
func endEvent(s *checkpoint.Snapshot, id int64) int {
	for i, ev := range s.Events {
		if ev.JobID == id && ev.Kind != evArrive {
			return i
		}
	}
	panic(fmt.Sprintf("snapshot has no end event for job %d", id))
}

// sortEvents puts a mutated snapshot's events back in their stored order.
func sortEvents(s *checkpoint.Snapshot) {
	slices.SortFunc(s.Events, compareEventRecords)
}

// jobByID returns the snapshot's record of one job.
func jobByID(s *checkpoint.Snapshot, id int64) *checkpoint.JobRecord {
	for i := range s.Jobs {
		if s.Jobs[i].ID == id {
			return &s.Jobs[i]
		}
	}
	panic(fmt.Sprintf("snapshot has no job %d", id))
}

// TestRestoreRejectsTruncatedSnapshot truncates a valid snapshot at many
// offsets: every cut must produce a clean decode or restore error, never
// a panic and never a simulator that silently starts from partial state.
func TestRestoreRejectsTruncatedSnapshot(t *testing.T) {
	w := throughputWorkload(200, true)
	s, err := NewSimulator(w, sched.Baseline{}, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := s.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	full := snap.Bytes()
	for cut := 0; cut < len(full); cut += 97 {
		if _, err := Restore(w, sched.Baseline{}, bytes.NewReader(full[:cut]), WithSeed(7)); err == nil {
			t.Fatalf("restore of %d/%d-byte truncation succeeded", cut, len(full))
		}
	}
	// The untruncated snapshot still restores.
	if _, err := Restore(w, sched.Baseline{}, bytes.NewReader(full), WithSeed(7)); err != nil {
		t.Fatalf("full snapshot failed to restore: %v", err)
	}
}

// midRunSnapshot steps the jobs-job Theta-S4 throughput trace (with
// stage-out) halfway and returns the workload, the paused simulator and
// its snapshot.
func midRunSnapshot(tb testing.TB, jobs int) (trace.Workload, *Simulator, []byte) {
	tb.Helper()
	w := throughputWorkload(jobs, true)
	s, err := NewSimulator(w, sched.Baseline{}, WithSeed(1))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < jobs/2; i++ {
		if _, err := s.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return w, s, buf.Bytes()
}

// TestCheckpointAllocs holds the allocation counts of encoding, decoding
// and restoring a mid-run snapshot of the 2 000-job throughput trace.
// Allocation counts do not depend on the machine, so each ceiling is the
// count measured when it was set (172, 450 and 598) plus 20%. The
// snapshot holds 138 jobs, so one more allocation per snapshot record
// crosses every ceiling. Restore shares the workload's jobs: it builds the
// engine and the state of the jobs in flight, not a copy of the 2 000.
func TestCheckpointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	w, s, data := midRunSnapshot(t, 2000)
	var buf bytes.Buffer
	for _, tc := range []struct {
		name    string
		ceiling float64
		op      func() error
	}{
		{"encode", 207, func() error { buf.Reset(); return s.Checkpoint(&buf) }},
		{"decode", 540, func() error { _, err := checkpoint.Decode(bytes.NewReader(data)); return err }},
		{"restore", 718, func() error {
			_, err := Restore(w, sched.Baseline{}, bytes.NewReader(data), WithSeed(1))
			return err
		}},
	} {
		var err error
		allocs := testing.AllocsPerRun(5, func() { err = tc.op() })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %.0f allocs/op (ceiling %.0f)", tc.name, allocs, tc.ceiling)
		if allocs > tc.ceiling {
			t.Errorf("%s makes %.0f allocs/op, ceiling %.0f", tc.name, allocs, tc.ceiling)
		}
	}
}

// BenchmarkCheckpoint measures snapshot encode, decode and restore over a
// mid-run state of the 20k-job Theta-S4 throughput trace (the snapshot
// holds the jobs pulled so far and not yet finished — queued, running,
// or in the look-ahead buffer — not the arrivals still in the source),
// and reports the snapshot size. Ungated, for local profiling:
// TestCheckpointAllocs holds the allocation ceilings, and bench/ reports
// checkpoint.* as per-layer metrics of the farm-grid workload.
func BenchmarkCheckpoint(b *testing.B) {
	jobs := 20000
	if testing.Short() {
		jobs = 2000
	}
	w, s, data := midRunSnapshot(b, jobs)
	var buf bytes.Buffer

	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := s.Checkpoint(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data)), "snapshot-B")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := checkpoint.Decode(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data)), "snapshot-B")
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Restore(w, sched.Baseline{}, bytes.NewReader(data), WithSeed(1)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data)), "snapshot-B")
	})
}
