package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bbsched/internal/checkpoint"
	"bbsched/internal/sim"
)

// TestFarmJournalWriteFailure: a result the journal cannot record is
// refused with a 500, which the worker retries, and the cell stays leased;
// once the journal writes again, the retry commits.
func TestFarmJournalWriteFailure(t *testing.T) {
	g := matGrid(3)
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	coord, err := NewCoordinator(g, WithJournal(jpath), WithLeaseTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if lease := coord.lease("w1"); lease.Cell != 0 || lease.Attempt != 1 {
		t.Fatalf("first lease = cell %d attempt %d, want cell 0 attempt 1", lease.Cell, lease.Attempt)
	}
	body, err := json.Marshal(ResultMsg{Cell: 0, Attempt: 1, Worker: "w1", Result: &sim.Result{TotalJobs: 40}})
	if err != nil {
		t.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/result", bytes.NewReader(body)))
		return rec
	}

	coord.mu.Lock()
	coord.journal.f.Close()
	coord.mu.Unlock()
	if rec := post(); rec.Code != http.StatusInternalServerError {
		t.Fatalf("result the journal could not record: status %d (%s), want 500", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if !transient(&statusError{code: http.StatusInternalServerError}) {
		t.Fatal("a worker does not retry a 500")
	}
	coord.mu.Lock()
	state := coord.m.cells[0].state
	coord.mu.Unlock()
	if state != cellLeased {
		t.Fatalf("cell state %d after a failed journal write, want still leased", state)
	}
	if done, _ := coord.Progress(); done != 0 {
		t.Fatalf("Progress moved to %d on a result the journal lost", done)
	}

	j, recs, err := openJournal(jpath, gridSHA(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("journal holds %d records after the failed write, want none", len(recs))
	}
	coord.mu.Lock()
	coord.journal = j
	coord.mu.Unlock()
	rec := post()
	var ack Ack
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); rec.Code != http.StatusOK || err != nil || ack.Stale {
		t.Fatalf("retried result: status %d, ack %s", rec.Code, rec.Body.String())
	}
	if done, _ := coord.Progress(); done != 1 {
		t.Fatalf("Progress %d after the retry committed, want 1", done)
	}
}

// TestFarmBadJournalClosesFile: a journal that replay refuses leaves no
// file open behind the refused NewCoordinator.
func TestFarmBadJournalClosesFile(t *testing.T) {
	openFiles := func() int {
		t.Helper()
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open files: %v", err)
		}
		return len(fds)
	}
	g := matGrid(3)
	header := fmt.Sprintf(`{"kind":"grid","grid_sha":%q,"snapshot":%d,"cell":0}`, gridSHA(g), checkpoint.Version)
	for name, records := range map[string]string{
		"cell out of range":  `{"kind":"result","cell":9,"result":{}}`,
		"undecodable result": `{"kind":"result","cell":0,"result":5}`,
		"unknown kind":       `{"kind":"rumour","cell":0}`,
	} {
		jpath := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(jpath, []byte(header+"\n"+records+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		before := openFiles()
		if _, err := NewCoordinator(g, WithJournal(jpath)); err == nil {
			t.Errorf("%s: journal accepted", name)
		}
		if after := openFiles(); after != before {
			t.Errorf("%s: %d files open after the refusal, %d before", name, after, before)
		}
	}
}
