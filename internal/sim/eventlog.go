package sim

import (
	"encoding/json"
	"fmt"
	"io"
)

// EventRecord is one line of the simulation event log (JSON Lines): every
// job state change plus the instantaneous machine usage after it. The log
// replays a whole run for debugging, utilization timelines, or external
// plotting.
type EventRecord struct {
	// T is the simulation time in seconds.
	T int64 `json:"t"`
	// Event is "submit", "start", "end", or "bb_release".
	Event string `json:"event"`
	// Job is the job ID.
	Job int `json:"job"`
	// Nodes and BBGB are the job's demand.
	Nodes int   `json:"nodes"`
	BBGB  int64 `json:"bb_gb,omitempty"`
	// Extra is the job's demand per extra resource dimension; omitted on
	// 2-dimension machines, so their logs are byte-identical to the
	// pre-generalization format.
	Extra []int64 `json:"extra,omitempty"`
	// UsedNodes and UsedBBGB are machine usage after the event.
	UsedNodes int   `json:"used_nodes"`
	UsedBBGB  int64 `json:"used_bb_gb"`
	// UsedExtra is machine usage per extra dimension after the event;
	// omitted on 2-dimension machines.
	UsedExtra []int64 `json:"used_extra,omitempty"`
	// Queued is the waiting-queue length after the event.
	Queued int `json:"queued"`
}

// Record converts an Observer event into its JSONL representation. kind is
// the EventRecord.Event value ("submit", "start", "end", "bb_release").
func (ev Event) Record(kind string) EventRecord {
	rec := EventRecord{
		T: ev.T, Event: kind, Job: ev.Job.ID,
		Nodes: ev.Job.Demand.NodeCount(), BBGB: ev.Job.Demand.BB(),
		UsedNodes: ev.UsedNodes, UsedBBGB: ev.UsedBBGB,
		UsedExtra: ev.UsedExtra,
		Queued:    ev.Queued,
	}
	if len(ev.UsedExtra) > 0 {
		// Pad the demand to the machine's dimensionality so every record
		// carries aligned vectors.
		rec.Extra = make([]int64, len(ev.UsedExtra))
		for k := range rec.Extra {
			rec.Extra[k] = ev.Job.Demand.Extra(k)
		}
	}
	return rec
}

// jsonlObserver streams EventRecords to a writer, one JSON object per
// line. It is the Observer behind WithEventLog. The first encode error is
// latched and surfaced to the Simulator via Err.
type jsonlObserver struct {
	NopObserver
	enc *json.Encoder
	err error
}

func newJSONLObserver(w io.Writer) *jsonlObserver {
	return &jsonlObserver{enc: json.NewEncoder(w)}
}

func (l *jsonlObserver) record(kind string, ev Event) {
	if l.err != nil {
		return
	}
	if err := l.enc.Encode(ev.Record(kind)); err != nil {
		l.err = fmt.Errorf("sim: event log: %w", err)
	}
}

// OnJobSubmit implements Observer.
func (l *jsonlObserver) OnJobSubmit(ev Event) { l.record("submit", ev) }

// OnJobStart implements Observer.
func (l *jsonlObserver) OnJobStart(ev Event) { l.record("start", ev) }

// OnJobEnd implements Observer.
func (l *jsonlObserver) OnJobEnd(ev Event) { l.record("end", ev) }

// OnBBRelease implements Observer.
func (l *jsonlObserver) OnBBRelease(ev Event) { l.record("bb_release", ev) }

// Err implements failingObserver.
func (l *jsonlObserver) Err() error { return l.err }

// ReadEventLog parses a JSONL event log back into records.
func ReadEventLog(r io.Reader) ([]EventRecord, error) {
	dec := json.NewDecoder(r)
	var out []EventRecord
	for {
		var rec EventRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("sim: reading event log: %w", err)
		}
		out = append(out, rec)
	}
}
