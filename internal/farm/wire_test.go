package farm

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// unreadBody is a body the handler must refuse without reading; a read
// fails the test.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("handler read a body it must refuse unread")
	return 0, io.EOF
}

// TestFarmCheckpointRoute drives POST /checkpoint as raw bytes: the
// message fields in the query, the snapshot as the body. Every malformed
// or stale upload must leave the stored snapshot as it was.
func TestFarmCheckpointRoute(t *testing.T) {
	coord, err := NewCoordinator(testGrid(), WithLeaseTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if lease := coord.lease("w1"); lease.Cell != 0 || lease.Attempt != 1 {
		t.Fatalf("first lease = cell %d attempt %d, want cell 0 attempt 1", lease.Cell, lease.Attempt)
	}
	h := coord.Handler()
	upload := func(query, contentType string, body io.Reader, length int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/checkpoint"+query, body)
		req.Header.Set("Content-Type", contentType)
		req.ContentLength = length
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	raw := func(query, body string) *httptest.ResponseRecorder {
		return upload(query, "application/octet-stream", strings.NewReader(body), int64(len(body)))
	}
	ack := func(rec *httptest.ResponseRecorder) Ack {
		t.Helper()
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d (%s), want 200", rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		var a Ack
		if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
			t.Fatalf("ack %q: %v", rec.Body.String(), err)
		}
		return a
	}
	stored := func(want string) {
		t.Helper()
		coord.mu.Lock()
		got := string(coord.m.cells[0].checkpoint)
		coord.mu.Unlock()
		if got != want {
			t.Fatalf("stored snapshot %q, want %q", got, want)
		}
	}

	if a := ack(raw("?cell=0&attempt=1&worker=w1", "snap-1")); a.Stale {
		t.Fatal("live upload acked stale")
	}
	stored("snap-1")

	for _, query := range []string{
		"", "?attempt=1", "?cell=&attempt=1", "?cell=x&attempt=1", "?cell=0", "?cell=0&attempt=one",
		"?cell=0&attempt=1.5", "?cell=0&attempt=1&terminal=maybe",
	} {
		if rec := raw(query, "malformed"); rec.Code != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", query, rec.Code)
		}
	}
	stored("snap-1")

	// The old wire: a JSON CheckpointMsg with the snapshot in base64, with
	// and without the fields repeated in the query.
	old, err := json.Marshal(CheckpointMsg{Cell: 0, Attempt: 1, Worker: "w1", Data: []byte("old-wire")})
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"", "?cell=0&attempt=1&worker=w1"} {
		rec := upload(query, "application/json", bytes.NewReader(old), int64(len(old)))
		if rec.Code/100 != 4 {
			t.Errorf("JSON body, query %q: status %d, want a 4xx refusal", query, rec.Code)
		}
	}
	stored("snap-1")

	if a := ack(raw("?cell=0&attempt=1&worker=w1", "")); !a.Stale {
		t.Error("empty body acked live")
	}
	stored("snap-1")

	rec := upload("?cell=0&attempt=1&worker=w1", "application/octet-stream", unreadBody{t}, maxBodyBytes+1)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared length over the cap: status %d, want 413", rec.Code)
	}
	rec = upload("?cell=0&attempt=1&worker=w1", "application/octet-stream", unreadBody{t}, -1)
	if rec.Code != http.StatusLengthRequired {
		t.Errorf("undeclared length: status %d, want 411", rec.Code)
	}
	stored("snap-1")

	// Reap attempt 1 and re-lease the cell: attempt 1's uploads are stale
	// and attempt 2's replace the snapshot the retry resumed from.
	coord.mu.Lock()
	coord.m.reap(time.Now().Add(2 * time.Hour))
	coord.mu.Unlock()
	if lease := coord.lease("w2"); lease.Cell != 0 || lease.Attempt != 2 || string(lease.Checkpoint) != "snap-1" {
		t.Fatalf("re-lease = cell %d attempt %d checkpoint %q, want cell 0 attempt 2 from snap-1",
			lease.Cell, lease.Attempt, lease.Checkpoint)
	}
	if a := ack(raw("?cell=0&attempt=1&worker=w1", "stale")); !a.Stale {
		t.Error("reaped attempt's upload acked live")
	}
	stored("snap-1")
	if a := ack(raw("?cell=0&attempt=2&worker=w2", "snap-2")); a.Stale {
		t.Error("re-issued attempt's upload acked stale")
	}
	stored("snap-2")
}
