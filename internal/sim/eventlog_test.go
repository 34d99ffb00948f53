package sim

import (
	"bytes"
	"strings"
	"testing"

	"bbsched/internal/job"
	"bbsched/internal/sched"
)

func TestEventLogRecordsLifecycle(t *testing.T) {
	a := job.MustNew(0, 0, 100, 100, job.NewDemand(4, 50, 0))
	a.StageOutSec = 30
	b := job.MustNew(1, 10, 20, 20, job.NewDemand(2, 0, 0))
	w := mkWorkload(tinySystem(10, 100), a, b)

	var buf bytes.Buffer
	if _, err := run(w, sched.Baseline{}, WithEventLog(&buf)); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadEventLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// 2 submits + 2 starts + 2 ends + 1 bb_release.
	counts := map[string]int{}
	for _, r := range recs {
		counts[r.Event]++
	}
	if counts["submit"] != 2 || counts["start"] != 2 || counts["end"] != 2 || counts["bb_release"] != 1 {
		t.Fatalf("event counts = %v", counts)
	}
	// Chronological order.
	for i := 1; i < len(recs); i++ {
		if recs[i].T < recs[i-1].T {
			t.Fatalf("log out of order at %d", i)
		}
	}
	// Usage after job 0's start reflects its demand.
	for _, r := range recs {
		if r.Event == "start" && r.Job == 0 {
			if r.UsedNodes != 4 || r.UsedBBGB != 50 {
				t.Fatalf("start record usage = %d nodes %d bb", r.UsedNodes, r.UsedBBGB)
			}
		}
		if r.Event == "bb_release" && r.UsedBBGB != 0 {
			t.Fatalf("bb not freed in final record: %+v", r)
		}
	}
}

func TestEventLogDisabledByDefault(t *testing.T) {
	j := job.MustNew(0, 0, 10, 10, job.NewDemand(1, 0, 0))
	w := mkWorkload(tinySystem(10, 0), j)
	if _, err := run(w, sched.Baseline{}); err != nil {
		t.Fatal(err)
	}
}

func TestReadEventLogRejectsGarbage(t *testing.T) {
	if _, err := ReadEventLog(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadEventLogEmpty(t *testing.T) {
	recs, err := ReadEventLog(strings.NewReader(""))
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty log: %v, %v", recs, err)
	}
}
