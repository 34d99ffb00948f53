package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bbsched/internal/metrics"
	"bbsched/internal/rng"
)

// sampleSnapshot exercises every field of the format but Stats.Waits,
// including the optional invocation-stream section and empty-vs-populated
// slices. Its Stats are of the sketch back-end; exactSample is the same
// snapshot with the exact one, whose waits travel instead of the sketches.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Workload:      "Theta-S4",
		Method:        "BBSched",
		Seed:          0xdeadbeefcafe,
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
		Usage: metrics.Usage{Nodes: 4, BBGB: 128, SSDAssignedGB: 64, SSDRequestedGB: 48, Extra: []int64{2}},
		Collector: metrics.CollectorState{
			LastT: 400, Started: true,
			Cur:     metrics.Usage{Nodes: 4, BBGB: 128, Extra: []int64{2}},
			NodeSec: 1600.5, BBSec: 51200.25, SSDAssignedSec: 100, SSDRequestedSec: 75,
			ExtraSec: []float64{800.125},
			FirstT:   10, LastTs: 400, Windowed: true, WinStart: 3600, WinEnd: 82800,
		},
		Stats: metrics.JobStatsState{
			N: 3, WaitSum: 90.5, SdSum: 4.25,
			SizeSums: []float64{10, 20}, SizeCounts: []int{1, 2},
			BBSums: []float64{5}, BBCounts: []int{3},
			RTSums: []float64{7, 8, 9}, RTCounts: []int{1, 1, 1},
			Sketch: true,
			P50:    metrics.QuantileState{P: 0.5, Count: 3, Q: [5]float64{1, 2, 3, 4, 5}, N: [5]float64{1, 2, 3, 4, 5}, NP: [5]float64{1, 2, 3, 4, 5}, DN: [5]float64{0, .25, .5, .75, 1}},
			P90:    metrics.QuantileState{P: 0.9, Count: 3},
			P99:    metrics.QuantileState{P: 0.99, Count: 3},
		},
		Rand:          rng.State{Seed: 42, Src: [4]uint64{1, 2, 3, 4}},
		HaveInvStream: true,
		InvStream:     rng.State{Seed: 43, Src: [4]uint64{5, 6, 7, 8}},
		Pulled:        8,
		LastSubmit:    50,
		SrcDone:       false,
		PendingIDs:    []int64{7},
		DoneLow:       4,
		DoneSparse:    []int64{6},
	}
}

func exactSample() *Snapshot {
	s := sampleSnapshot()
	s.Stats.Sketch = false
	s.Stats.Waits = []float64{30.5, 10, 50}
	s.Stats.P50, s.Stats.P90, s.Stats.P99 = metrics.QuantileState{}, metrics.QuantileState{}, metrics.QuantileState{}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		snap *Snapshot
	}{
		{"full", sampleSnapshot()},
		{"exact", exactSample()},
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
				!reflect.DeepEqual(got.Stats, tc.snap.Stats) || !reflect.DeepEqual(got.Events, decodedOrNilEvents(tc.snap.Events)) {
				t.Fatalf("decoded snapshot fields diverge:\n got %+v\nwant %+v", got, tc.snap)
			}
		})
	}
}

// TestWireFormatPinned pins the bytes of the format: between them the two
// samples set every field, so any change to a walk's order, widths or
// coverage moves a hash. A deliberate format change bumps Version and
// these constants together (version 3: finished jobs and the metrics-mode
// flags left the wire, the exact back-end's waits joined it).
func TestWireFormatPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		snap *Snapshot
		want string
	}{
		{"sketch", sampleSnapshot(), "9c0aaacc9bba44ddbf46f19ae88260395aef9262b60b182b2bb641cdbbe963dc"},
		{"exact", exactSample(), "e24053f3f38550237367afbb9229cba85d34d331b3fe9c9ed25c95f8b55ddcc4"},
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, tc.snap); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("format version %d encodes the %s sample (%d bytes) to %s, pinned %s",
				Version, tc.name, buf.Len(), got, tc.want)
		}
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

	// A newer build's stream, and the version-1 and version-2 streams
	// (the formats that still carried Streaming and DoneIDs, then the
	// finished jobs and their ID list) a stale cache or relay may hold.
	for _, v := range []uint32{Version + 1, 1, 2} {
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

// TestDecodeDefences pins what the decoder does with hostile bytes: the
// error it reports, that no partial snapshot comes back with it, and that
// a declared length it cannot trust costs a bounded allocation.
func TestDecodeDefences(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	const header = 8 // magic + version
	// Offsets of the first list length (Jobs) in the sample — two strings
	// and the seed, then the identity and clock integers — and of the last
	// bool (SrcDone), which two one-ID lists and DoneLow follow.
	jobsLen := header + 4 + len("Theta-S4") + 4 + len("BBSched") + 8 + 8*8
	srcDone := len(raw) - (1 + (4 + 8) + 8 + (4 + 8))

	patch := func(at int, b ...byte) []byte {
		out := append([]byte(nil), raw[:at]...)
		return append(out, b...)
	}
	// One job up to its Res length: ID, empty User, three times.
	oneJob := append(patch(jobsLen, 1, 0, 0, 0), make([]byte, 8+4+3*8)...)
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"short read", raw[:len(raw)-1], "truncated snapshot: unexpected EOF"},
		{"empty", nil, "truncated snapshot: unexpected EOF"},
		{"corrupt bool", append(patch(srcDone, 2), raw[srcDone+1:]...), "corrupt bool byte 2"},
		{"oversized string", patch(header, 0x01, 0x00, 0x01, 0x00), "string length 65537 exceeds 65536"},
		{"huge list", patch(jobsLen, 0xff, 0xff, 0xff, 0xff), "truncated snapshot: unexpected EOF"},
		{"huge scalar slice", append(oneJob, 0xff, 0xff, 0xff, 0xff), "truncated snapshot: unexpected EOF"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := Decode(bytes.NewReader(tc.data))
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want one containing %q", err, tc.want)
			}
			if s != nil {
				t.Fatalf("Decode returned a partial snapshot with error %v", err)
			}
			// prealloc JobRecords are well under 1 MB; 2³²−1 of them are not.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
				t.Fatalf("decoding %d hostile bytes allocated %d bytes", len(tc.data), grew)
			}
		})
	}

	long := &Snapshot{Workload: strings.Repeat("x", maxString+1)}
	if err := Encode(io.Discard, long); err == nil || !strings.Contains(err.Error(), "string length 65537 exceeds 65536") {
		t.Fatalf("encoding an oversized string: got %v", err)
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
