package farm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"bbsched/internal/checkpoint"
	"bbsched/internal/sim"
)

// The coordinator journal is an append-only JSONL cell-state log that
// lets the coordinator itself crash and resume: completed cells and
// finished relay segments are recorded before they are accepted, and a new
// coordinator constructed over the same grid and journal path replays
// them before leasing anything, so a restarted sweep recomputes only the
// cells that were genuinely in flight.
//
// Only terminal state is journaled — results and relay-segment boundary
// snapshots — never mid-run checkpoints, so the file grows with completed
// work, not with checkpoint cadence. The first record pins the SHA-256 of
// the grid and the snapshot format version the segment records were
// written in; replaying a journal against a different grid, or under a
// build that cannot restore its snapshots, is an error, not a silent
// mismatch (or a cell burning its attempts on bytes no worker can read).

// journalRec is one JSONL record.
type journalRec struct {
	// Kind discriminates: "grid" (header), "result", "segment".
	Kind string `json:"kind"`
	// GridSHA and Snapshot pin the grid and checkpoint.Version on the
	// header record.
	GridSHA  string `json:"grid_sha,omitempty"`
	Snapshot int    `json:"snapshot,omitempty"`
	// Cell is the grid-order cell index for result/segment records.
	Cell int `json:"cell"`
	// Result carries a completed cell's result.
	Result *sim.Result `json:"result,omitempty"`
	// SegDone and Checkpoint carry a relay cell's completed-segment count
	// and the terminal snapshot the next segment resumes from.
	SegDone    int    `json:"seg_done,omitempty"`
	Checkpoint []byte `json:"checkpoint,omitempty"`
	attempt    int    // the live lease the record came from; never written
}

// journal is the open append handle. Appends happen under the
// coordinator's mutex, so it needs no locking of its own.
type journal struct {
	f   *os.File
	enc *json.Encoder
}

// gridSHA is the canonical grid identity the journal header pins.
func gridSHA(g Grid) string {
	data, _ := json.Marshal(g)
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// openJournal opens (or creates) the journal at path for the grid with
// the given SHA, returning the replayable records of a previous run. A
// partial or torn trailing line — the signature of a crash mid-append —
// is dropped and truncated away; any other corrupt record is an error.
func openJournal(path, sha string) (*journal, []journalRec, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("farm: journal: %w", err)
	}
	var recs []journalRec
	valid := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// Unterminated tail: a crash interrupted the last append.
			break
		}
		line := data[:nl]
		data = data[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			valid += nl + 1
			continue
		}
		var rec journalRec
		if err := json.Unmarshal(line, &rec); err != nil {
			var torn *json.SyntaxError // a crash tears a line; it never reshapes one
			if len(data) == 0 && errors.As(err, &torn) {
				break
			}
			return nil, nil, fmt.Errorf("farm: journal %s: corrupt record %d: %w", path, len(recs)+1, err)
		}
		if len(recs) == 0 {
			if rec.Kind != "grid" {
				return nil, nil, fmt.Errorf("farm: journal %s: missing grid header", path)
			}
			if rec.GridSHA != sha {
				return nil, nil, fmt.Errorf("farm: journal %s: grid mismatch (journal %s, grid %s) — the journal belongs to a different sweep", path, rec.GridSHA[:12], sha[:12])
			}
			if rec.Snapshot != checkpoint.Version {
				return nil, nil, fmt.Errorf("farm: journal %s: snapshot format mismatch (journal: version %d, 0 meaning it recorded none; this build: version %d) — its relay snapshots cannot be restored", path, rec.Snapshot, checkpoint.Version)
			}
		}
		recs = append(recs, rec)
		valid += nl + 1
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("farm: journal: %w", err)
	}
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("farm: journal: %w", err)
	}
	j := &journal{f: f, enc: json.NewEncoder(f)}
	if len(recs) == 0 {
		if err := j.append(journalRec{Kind: "grid", GridSHA: sha, Snapshot: checkpoint.Version}); err != nil {
			f.Close()
			return nil, nil, err
		}
	} else {
		recs = recs[1:] // header consumed
	}
	return j, recs, nil
}

// append writes one record and syncs it to disk before the accept that
// triggered it is acknowledged.
func (j *journal) append(rec journalRec) error {
	if err := j.enc.Encode(rec); err != nil {
		return fmt.Errorf("farm: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("farm: journal sync: %w", err)
	}
	return nil
}
