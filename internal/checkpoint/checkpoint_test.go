package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// sampleSnapshot exercises every field of the format, including the
// optional stats and invocation-stream sections and empty-vs-populated
// slices.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Workload:      "Theta-S4",
		Method:        "BBSched",
		Seed:          0xdeadbeefcafe,
		StreamStats:   true,
		NumClasses:    2,
		NumExtra:      1,
		Now:           86400,
		Invocations:   512,
		DecideTotalNS: 123456789,
		DecideMaxNS:   9876543,
		WarmEnd:       3600,
		CoolStart:     82800,
		Jobs: []JobRecord{
			{ID: 0, User: "u1", SubmitTime: 10, Runtime: 300, WalltimeEst: 600,
				Res: []int64{4, 128, 0, 2}, StageOutSec: 64, Deps: nil,
				State: 2, StartTime: 100, EndTime: 400, WindowAge: 3},
			{ID: 7, User: "u2", SubmitTime: 50, Runtime: 60, WalltimeEst: 120,
				Res: []int64{1, 0}, Deps: []int64{0}, State: 0, StartTime: -1, EndTime: -1},
		},
		Events:   []EventRecord{{T: 400, Kind: 0, JobID: 0}, {T: 400, Kind: 1, JobID: 7}},
		QueueIDs: []int64{7},
		Running: []RunningRecord{{
			JobID: 0, Release: 400, Staging: true, BBRelease: 464,
			Alloc: AllocRecord{NodesByClass: []int64{0, 0}, BB: 128, WastedSSD: 32, Extra: []int64{0}},
		}},
		FinishedIDs: []int64{3, 1, 2},
		Usage:       UsageRecord{Nodes: 4, BBGB: 128, SSDAssignedGB: 64, SSDRequestedGB: 48, Extra: []int64{2}},
		Collector: CollectorRecord{
			LastT: 400, Started: true,
			Cur:     UsageRecord{Nodes: 4, BBGB: 128, Extra: []int64{2}},
			NodeSec: 1600.5, BBSec: 51200.25, SSDAssignedSec: 100, SSDRequestedSec: 75,
			ExtraSec: []float64{800.125},
			FirstT:   10, LastTs: 400, Windowed: true, WinStart: 3600, WinEnd: 82800,
		},
		HaveStats: true,
		Stats: JobStatsRecord{
			N: 3, WaitSum: 90.5, SdSum: 4.25,
			SizeSums: []float64{10, 20}, SizeCounts: []int64{1, 2},
			BBSums: []float64{5}, BBCounts: []int64{3},
			RTSums: []float64{7, 8, 9}, RTCounts: []int64{1, 1, 1},
			P50: QuantileRecord{P: 0.5, Count: 3, Q: [5]float64{1, 2, 3, 4, 5}, N: [5]float64{1, 2, 3, 4, 5}, NP: [5]float64{1, 2, 3, 4, 5}, DN: [5]float64{0, .25, .5, .75, 1}},
			P90: QuantileRecord{P: 0.9, Count: 3},
			P99: QuantileRecord{P: 0.99, Count: 3},
		},
		Rand:          RNGRecord{Seed: 42, Src: [4]uint64{1, 2, 3, 4}},
		HaveInvStream: true,
		InvStream:     RNGRecord{Seed: 43, Src: [4]uint64{5, 6, 7, 8}},
		Pulled:        8,
		LastSubmit:    50,
		SrcDone:       false,
		PendingIDs:    []int64{7},
		DoneLow:       4,
		DoneSparse:    []int64{6},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		snap *Snapshot
	}{
		{"full", sampleSnapshot()},
		{"minimal", &Snapshot{Workload: "w", Method: "m"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Encode(&buf, tc.snap); err != nil {
				t.Fatal(err)
			}
			got, err := Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			// Normalize nil-vs-empty by re-encoding: the wire format is the
			// canonical representation.
			var again bytes.Buffer
			if err := Encode(&again, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				t.Fatalf("re-encoded snapshot differs (%d vs %d bytes)", buf.Len(), again.Len())
			}
			if got.Workload != tc.snap.Workload || got.Seed != tc.snap.Seed ||
				got.HaveStats != tc.snap.HaveStats || !reflect.DeepEqual(got.Events, decodedOrNilEvents(tc.snap.Events)) {
				t.Fatalf("decoded snapshot fields diverge:\n got %+v\nwant %+v", got, tc.snap)
			}
		})
	}
}

// decodedOrNilEvents mirrors the decoder's empty-slice normalization for
// the DeepEqual comparison above.
func decodedOrNilEvents(ev []EventRecord) []EventRecord {
	if len(ev) == 0 {
		return []EventRecord{}
	}
	return ev
}

// TestDecodeVersionSkew pins the version-skew contract: a snapshot
// written by a future format version must fail with ErrVersion (so a
// farm worker on an older build reports a clean retryable error), and
// garbage magic must fail fast.
func TestDecodeVersionSkew(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// A newer build's stream, and a version-1 stream (the format that
	// still carried Streaming and DoneIDs) a stale cache or relay may hold.
	for _, v := range []uint32{Version + 1, 1} {
		skewed := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(skewed[4:8], v)
		_, err := Decode(bytes.NewReader(skewed))
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("decoding version %d snapshot: got %v, want ErrVersion", v, err)
		}
		if !strings.Contains(err.Error(), "version") {
			t.Fatalf("version error %q does not say 'version'", err)
		}
	}

	garbage := append([]byte("XXXX"), raw[4:]...)
	if _, err := Decode(bytes.NewReader(garbage)); err == nil || errors.Is(err, ErrVersion) {
		t.Fatalf("decoding bad magic: got %v, want a magic error", err)
	}
}

// TestDecodeTruncated cuts a valid snapshot at every offset: each prefix
// must produce an error, never a panic or a silently partial snapshot.
func TestDecodeTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := Decode(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("decoding %d/%d-byte prefix succeeded", cut, len(raw))
		}
	}
}

// FuzzDecode hammers the decoder with corrupted snapshots. The contract:
// never panic, never hang on huge declared lengths, and any input that
// decodes must re-encode to a byte-stable canonical form.
func FuzzDecode(f *testing.F) {
	var valid bytes.Buffer
	if err := Encode(&valid, sampleSnapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:16])
	f.Add([]byte(magic))
	f.Add([]byte{})
	// A declared slice length of ~4 billion must not preallocate.
	huge := append([]byte(nil), valid.Bytes()[:8]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Encode(&out, s); err != nil {
			t.Fatalf("re-encoding a decoded snapshot failed: %v", err)
		}
		s2, err := Decode(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded snapshot failed: %v", err)
		}
		var out2 bytes.Buffer
		if err := Encode(&out2, s2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatalf("canonical form unstable: %d vs %d bytes", out.Len(), out2.Len())
		}
	})
}
