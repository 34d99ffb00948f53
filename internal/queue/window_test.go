package queue

import (
	"fmt"
	"slices"
	"testing"

	"bbsched/internal/job"
	"bbsched/internal/rng"
)

// TestPassWindowMatchesReference carries one queue through passes the way
// the engine does — jobs arriving and leaving, the clock moving, repeating
// and going back, dependencies finishing and being taken back — and reads
// each pass's window either unordered or in order, against the reference
// window off Sorted and a model that writes every age eagerly. After
// every Pass the front must hold the reference window's jobs. An
// unordered read must return the window's jobs that MayFit the totals,
// order them as the reference does (Before) with the model's ages
// (WindowAge), and Age must hand back the best job it did not start only
// if a job behind the window may fit. An ordered read must return the
// window in order, and so must Aged after Age, but for the jobs started.
// A Pass whose front does not shrink, on a queue it does not sort, must
// move no job of the front past another. Some jobs enter already aged
// (AddAged). After every pass, and for every job that leaves, the ages
// must be the model's.
func TestPassWindowMatchesReference(t *testing.T) {
	policies := []Policy{FCFS{}, WFP{}, Multifactor{MachineNodes: 64}, nanEvery{WFP{}}, reversing{}}
	for pi, pol := range policies {
		t.Run(fmt.Sprintf("%d-%s", pi, pol.Name()), func(t *testing.T) {
			r := rng.New(uint64(601 + pi))
			trials := 30
			if testing.Short() {
				trials = 8
			}
			for trial := 0; trial < trials; trial++ {
				for _, tf := range append(testFronts, frontDrawn) {
					carryWindow(t, r, pol, tf, fmt.Sprintf("trial %d front %d", trial, tf))
				}
			}
		})
	}
}

// carryWindow is one TestPassWindowMatchesReference case: 60 passes over
// one queue whose window is front jobs.
func carryWindow(t *testing.T, r *rng.Stream, pol Policy, tf int, label string) {
	t.Helper()
	q := New(pol)
	waiting, ages := map[int]*job.Job{}, map[int]int{}
	nextID, doneBelow, now := 1, 1001, int64(r.Intn(100))
	depsDone := func(id int) bool { return id < doneBelow }
	leave := func(id int, at string) {
		age, err := q.Remove(id)
		if err != nil {
			t.Fatal(err)
		}
		if age != ages[id] {
			t.Fatalf("%s: job %d left with window age %d, model %d", at, id, age, ages[id])
		}
		delete(waiting, id)
	}
	for pass := 0; pass < 60; pass++ {
		for n := r.Intn(12); n > 0; n-- {
			j := randomJob(r, nextID)
			j.SubmitTime += now / 2
			nextID++
			if r.Bool(0.7) {
				if err := q.Add(j); err != nil {
					t.Fatal(err)
				}
			} else {
				ages[j.ID] = r.Intn(100) // as a restored queue re-enters it
				if err := q.AddAged(j, ages[j.ID]); err != nil {
					t.Fatal(err)
				}
			}
			waiting[j.ID] = j
		}
		for n := r.Intn(3); n > 0 && len(waiting) > 0; n-- {
			leave(pickAny(r, waiting), label)
		}
		step := int64(2*r.Intn(30) + 1)
		switch {
		case r.Bool(0.15):
		case r.Bool(0.15):
			now -= step
		default:
			now += step
		}
		switch {
		case doneBelow < 1004 && r.Bool(0.05):
			doneBelow++
		case doneBelow > 1001 && r.Bool(0.03):
			doneBelow--
		}

		ref := refWindow(q.Sorted(now), q.Len(), depsDone)
		front := frontFor(r, tf, q.Len())
		window, behind := ref[:min(front, len(ref))], ref[min(front, len(ref)):]
		rank := map[int]int{}
		for i, j := range window {
			rank[j.ID] = i
		}
		at := fmt.Sprintf("%s pass %d (n=%d, now=%d, front=%d)", label, pass, q.Len(), now, front)
		was, sorts := slotIDs(q.slots[:q.front]), q.sorts
		rk := q.Pass(now, depsDone, front)
		checkInvariant(t, q)
		if is := slotIDs(q.slots[:q.front]); front >= len(was) && q.sorts == sorts {
			var stayed []int
			for _, id := range is {
				if slices.Contains(was, id) {
					stayed = append(stayed, id)
				}
			}
			if kept := slices.DeleteFunc(slices.Clone(was), func(id int) bool { return !slices.Contains(is, id) }); !slices.Equal(stayed, kept) {
				t.Fatalf("%s: Pass reordered the front's jobs %v to %v without a sort", at, kept, stayed)
			}
		}
		if got := slotIDs(q.slots[:q.front]); !sameIDs(got, jobIDs(window)) {
			t.Fatalf("%s: front %v, reference window %v", at, got, jobIDs(window))
		}
		freeNodes, freeBB := r.Intn(25), int64(r.Intn(300))
		var started []*job.Job
		if r.Bool(0.6) {
			got := rk.Window(freeNodes, freeBB)
			var want []int
			for _, j := range window {
				if EntryOf(j).MayFit(freeNodes, freeBB) {
					want = append(want, j.ID)
				}
			}
			if !sameIDs(jobIDs(entryJobs(t, got)), want) {
				t.Fatalf("%s: Window(%d, %d) returned %v, want the window's %v", at, freeNodes, freeBB, jobIDs(entryJobs(t, got)), want)
			}
			for a := range got {
				if age := rk.WindowAge(a); age != ages[got[a].Job.ID] {
					t.Fatalf("%s: WindowAge of job %d is %d, model %d", at, got[a].Job.ID, age, ages[got[a].Job.ID])
				}
				for b := range got {
					if rk.Before(a, b) != (rank[got[a].Job.ID] < rank[got[b].Job.ID]) {
						t.Fatalf("%s: Before orders job %d against %d unlike the reference", at, got[a].Job.ID, got[b].Job.ID)
					}
				}
				if r.Bool(0.2) {
					started = append(started, got[a].Job)
				}
			}
			// The pass starts some of them and leaves the rest behind, dead.
			freeNodes, freeBB = r.Intn(25), int64(r.Intn(300))
			left := rk.Age(started, freeNodes, freeBB)
			var head []int
			if slices.ContainsFunc(behind, func(j *job.Job) bool { return EntryOf(j).MayFit(freeNodes, freeBB) }) {
				for _, j := range window {
					if !slices.Contains(started, j) {
						head = append(head, j.ID)
						break
					}
				}
			}
			if got := jobIDs(entryJobs(t, left)); fmt.Sprint(got) != fmt.Sprint(head) {
				t.Fatalf("%s: Age left %v behind, want the window's best job not started only if a job behind may fit: %v", at, got, head)
			}
			var kept []int
			for _, j := range window {
				if !slices.Contains(started, j) {
					ages[j.ID]++
					kept = append(kept, j.ID)
				}
			}
			if r.Bool(0.3) {
				aged := entryJobs(t, rk.Aged(nil, started))
				if got := jobIDs(aged); fmt.Sprint(got) != fmt.Sprint(kept) {
					t.Fatalf("%s: Aged read %v, want the window but for the jobs started, %v", at, got, kept)
				}
				for _, j := range aged {
					if age := q.WindowAge(j.ID); age != ages[j.ID] {
						t.Fatalf("%s: after Aged job %d has window age %d, model %d", at, j.ID, age, ages[j.ID])
					}
				}
			}
		} else {
			got := jobIDs(entryJobs(t, rk.Front(front)))
			if fmt.Sprint(got) != fmt.Sprint(jobIDs(window)) {
				t.Fatalf("%s: Front(%d) read %v, reference %v", at, front, got, jobIDs(window))
			}
			for _, j := range window {
				if r.Bool(0.2) {
					started = append(started, j)
					continue
				}
				ages[j.ID]++
			}
			rk.AgeWindow(started) // the live pass ages what it leaves behind
		}
		for _, j := range started {
			leave(j.ID, at)
		}
		checkInvariant(t, q)
		for id := range waiting {
			if got := q.WindowAge(id); got != ages[id] {
				t.Fatalf("%s: job %d has age %d, model %d", at, id, got, ages[id])
			}
		}
	}
}

// sameIDs reports whether a and b hold the same IDs, in any order.
func sameIDs(a, b []int) bool {
	return len(a) == len(b) && fmt.Sprint(slices.Sorted(slices.Values(a))) == fmt.Sprint(slices.Sorted(slices.Values(b)))
}
