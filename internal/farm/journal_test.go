package farm

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bbsched/internal/checkpoint"
)

// TestFarmJournalReplay: a coordinator crash mid-grid loses nothing —
// the replacement replays completed cells from the append-only journal
// (tolerating a record cut mid-append by the crash), leases only the
// remainder, and still assembles the grid identical to the serial
// sweep. A journal written for a different grid, or under another
// snapshot format version, is refused.
func TestFarmJournalReplay(t *testing.T) {
	g := matGrid(3, 4) // 4 cells
	want := serialReference(t, g)
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")

	// Phase 1: run until at least two cells complete, then kill the
	// worker and throw the coordinator away.
	coord1, err := NewCoordinator(g, WithJournal(jpath))
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(coord1.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		w := &Worker{Coordinator: srv1.URL, ID: "doomed", Poll: 2 * time.Millisecond}
		done <- w.Run(ctx)
	}()
	deadline := time.Now().Add(time.Minute)
	for {
		if d, _ := coord1.Progress(); d >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker made no progress before the injected crash")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	<-done
	survived, total := coord1.Progress()
	coord1.Close()
	srv1.Close()

	// Crash signature: the final journal append was cut mid-record.
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"result","cell":3,"resu`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a fresh coordinator on the same journal replays the
	// survivors and the sweep finishes from where the first one died.
	coord2, err := NewCoordinator(g, WithJournal(jpath))
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if got := coord2.Stats().Replayed; got != survived {
		t.Fatalf("Replayed = %d, want %d", got, survived)
	}
	w2 := &Worker{ID: "resumer", Poll: 2 * time.Millisecond}
	got := runFarm(t, coord2, []*Worker{w2}, time.Minute)
	if leased := w2.Stats().Leases; leased != total-survived {
		t.Errorf("resumed run leased %d cells, want %d (replayed cells must not re-run)", leased, total-survived)
	}
	compareRuns(t, got, want)

	// The journal is bound to its grid: a different sweep must refuse it.
	if _, err := NewCoordinator(matGrid(9), WithJournal(jpath)); err == nil {
		t.Fatal("journal belonging to a different sweep accepted")
	}

	// ... and to the snapshot format its segment records are in: under
	// another checkpoint.Version no worker could restore them, so the
	// journal is refused up front, whether it names another version or
	// predates the header field.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	header, rest, _ := bytes.Cut(data, []byte("\n"))
	current := fmt.Sprintf(`"snapshot":%d,`, checkpoint.Version)
	if !bytes.Contains(header, []byte(current)) {
		t.Fatalf("journal header %s does not record %s", header, current)
	}
	for _, tc := range []struct{ name, field, version string }{
		{"other version", fmt.Sprintf(`"snapshot":%d,`, checkpoint.Version-1), fmt.Sprint(checkpoint.Version - 1)},
		{"no version", "", "0"},
	} {
		stale := filepath.Join(t.TempDir(), "stale.jsonl")
		skewed := bytes.Replace(header, []byte(current), []byte(tc.field), 1)
		if err := os.WriteFile(stale, append(append(skewed, '\n'), rest...), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := NewCoordinator(g, WithJournal(stale))
		if err == nil {
			t.Fatalf("%s: journal of another snapshot format accepted", tc.name)
		}
		for _, v := range []string{tc.version, fmt.Sprint(checkpoint.Version)} {
			if !strings.Contains(err.Error(), "version "+v) {
				t.Errorf("%s: error %q does not name version %s", tc.name, err, v)
			}
		}
	}
}
