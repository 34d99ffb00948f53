package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

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

// hashedSample is the sketch sample as a run over a materialized workload
// writes it: the jobs named by hash, the records down to their run fields.
func hashedSample() *Snapshot {
	s := sampleSnapshot()
	s.Hashed = true
	for i := range s.JobsHash {
		s.JobsHash[i] = byte(i + 1)
	}
	for i, j := range s.Jobs {
		s.Jobs[i] = JobRecord{ID: j.ID, State: j.State, StartTime: j.StartTime, EndTime: j.EndTime, WindowAge: j.WindowAge}
	}
	return s
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
		{"hashed", hashedSample()},
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
			if got.Workload != tc.snap.Workload || got.Seed != tc.snap.Seed || got.JobsHash != tc.snap.JobsHash ||
				got.DecideTotalNS != tc.snap.DecideTotalNS || got.DecideMaxNS != tc.snap.DecideMaxNS ||
				!reflect.DeepEqual(got.Jobs, decodedOrEmpty(tc.snap.Jobs)) ||
				!reflect.DeepEqual(got.DoneSparse, tc.snap.DoneSparse) ||
				!reflect.DeepEqual(got.Stats, tc.snap.Stats) || !reflect.DeepEqual(got.Events, decodedOrEmpty(tc.snap.Events)) {
				t.Fatalf("decoded snapshot fields diverge:\n got %+v\nwant %+v", got, tc.snap)
			}
		})
	}
}

// TestWireFormatPinned pins the bytes of the format: between them the
// three samples set every field, so any change to a walk's order, widths
// or coverage moves a hash. A deliberate format change bumps Version and
// these constants together (version 4: a materialized workload's jobs
// named by hash, the done set as a bitmap, the wall-clock trailer and the
// CRC-32C).
func TestWireFormatPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		snap *Snapshot
		want string
	}{
		{"sketch", sampleSnapshot(), "e5e8182fe5e0d008d60cb9abd3ef5fd16a502a30d74254d16bec867797efb68a"},
		{"exact", exactSample(), "aa6b98673a6c6e57e737d4775a2ccdc934868ee3c2b717c590d1a801acf199d2"},
		{"hashed", hashedSample(), "68c54ead589d5dc6541c01d0ec5835031af0424c79381788c34788603c50797f"},
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

// decodedOrEmpty mirrors the decoder's empty-list normalization for the
// DeepEqual comparison above.
func decodedOrEmpty[T any](xs []T) []T {
	if len(xs) == 0 {
		return []T{}
	}
	return xs
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

// seal closes body with the CRC-32C trailer, as Append does, so that a
// test's hand-made bytes get past the checksum to the parser.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, castagnoli))
}

// TestDecodeDefences pins what the decoder does with hostile bytes: the
// error it reports, that no partial snapshot comes back with it, and that
// a declared length it cannot trust costs a bounded allocation. Every
// case but the first three is sealed with a valid checksum, so that it
// reaches the parser.
func TestDecodeDefences(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	body := raw[:len(raw)-4]
	// Offsets of the first list length (Jobs) in the sample — two strings
	// and the seed, the two shape integers, the Hashed flag and the four
	// clock integers — and of the last bool (SrcDone), which a one-ID
	// list, DoneLow, the one-word done set and the trailer follow; and of
	// the done set's lowest ID.
	jobsLen := headerLen + 4 + len("Theta-S4") + 4 + len("BBSched") + 8 + 2*8 + 1 + 4*8
	doneLo := len(raw) - trailerLen - (8 + 4 + 8)
	srcDone := doneLo - (1 + (4 + 8) + 8)

	patch := func(at int, b ...byte) []byte {
		out := append([]byte(nil), body[:at]...)
		return append(out, b...)
	}
	// One job up to its Res length: ID, empty User, three times.
	oneJob := append(patch(jobsLen, 1, 0, 0, 0), make([]byte, 8+4+3*8)...)
	padding := make([]byte, trailerLen)
	// The hashed sample cut off in its jobs hash, after the Hashed flag.
	hashed, err := Append(nil, hashedSample())
	if err != nil {
		t.Fatal(err)
	}
	hashAt := jobsLen - 4*8
	cutHash := append(append([]byte(nil), hashed[:hashAt+10]...), padding[:trailerLen-10]...)
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"short read", raw[:len(raw)-1], "checksum mismatch"},
		{"flipped byte", append(patch(srcDone, raw[srcDone]^0x10), raw[srcDone+1:]...), "checksum mismatch"},
		{"empty", nil, "truncated snapshot: unexpected EOF"},
		{"corrupt bool", seal(append(patch(srcDone, 2), body[srcDone+1:]...)), "corrupt bool byte 2"},
		{"oversized string", seal(append(patch(headerLen, 0x01, 0x00, 0x01, 0x00), padding...)), "string length 65537 exceeds 65536"},
		{"huge list", seal(patch(jobsLen, 0xff, 0xff, 0xff, 0xff)), "truncated snapshot: unexpected EOF"},
		{"jobs hash cut short", seal(cutHash), "truncated snapshot: unexpected EOF"},
		{"huge scalar slice", seal(append(oneJob, 0xff, 0xff, 0xff, 0xff)), "truncated snapshot: unexpected EOF"},
		{"done set past the largest ID", seal(append(patch(doneLo, 0xf0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), body[doneLo+8:]...)), "passes the largest ID"},
		{"trailing bytes", seal(append(append([]byte(nil), body...), 0)), "1 bytes past the snapshot's end"},
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
			// The input is a few KB; 2³²−1 job records are not.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
				t.Fatalf("decoding %d hostile bytes allocated %d bytes", len(tc.data), grew)
			}
		})
	}

	if _, err := Decode(iotest.ErrReader(io.ErrClosedPipe)); err == nil || !strings.Contains(err.Error(), "reading snapshot") {
		t.Fatalf("decoding from a failing reader: got %v", err)
	}
	long := &Snapshot{Workload: strings.Repeat("x", maxString+1)}
	if err := Encode(io.Discard, long); err == nil || !strings.Contains(err.Error(), "string length 65537 exceeds 65536") {
		t.Fatalf("encoding an oversized string: got %v", err)
	}
	wide := &Snapshot{DoneSparse: []int64{math.MinInt64, math.MaxInt64}}
	if err := Encode(io.Discard, wide); err == nil || !strings.Contains(err.Error(), "ID set spans") {
		t.Fatalf("encoding a done set wider than the wire can carry: got %v", err)
	}
}

// TestDecodeRejectsEveryBitFlip flips each bit of a small snapshot in
// turn: the header's flips fail the magic or version check, and every
// other one the CRC-32C, which catches any single-bit error.
func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	raw, err := Append(nil, &Snapshot{Workload: "w", Method: "m", Pulled: 9, DoneLow: 2, DoneSparse: []int64{4, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(raw)); err != nil {
		t.Fatalf("the snapshot as written does not decode: %v", err)
	}
	flipped := make([]byte, len(raw))
	for bit := 0; bit < 8*len(raw); bit++ {
		copy(flipped, raw)
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, err := Decode(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("flipping bit %d of %d decodes", bit, 8*len(raw))
		}
	}
}

// TestBodyOmitsWallClock: two snapshots that differ only in their
// wall-clock decision times share a body, and one that differs anywhere
// else does not.
func TestBodyOmitsWallClock(t *testing.T) {
	encode := func(s *Snapshot) []byte {
		b, err := Append(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := sampleSnapshot(), sampleSnapshot()
	b.DecideTotalNS++
	b.DecideMaxNS++
	ea, eb := encode(a), encode(b)
	if bytes.Equal(ea, eb) || !bytes.Equal(Body(ea), Body(eb)) {
		t.Fatal("snapshots differing only in the wall clock do not share just their bodies")
	}
	b.Now++
	if bytes.Equal(Body(ea), Body(encode(b))) {
		t.Fatal("snapshots at different instants share a body")
	}
	if Body(ea[:trailerLen-1]) != nil {
		t.Fatal("Body of bytes shorter than the trailer is not nil")
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

// FuzzDecodeSealed is FuzzDecode past the checksum: it seals each input
// with a valid CRC-32C trailer, so the mutations reach the parser instead
// of failing the checksum, and holds the decoder to the same contract.
func FuzzDecodeSealed(f *testing.F) {
	valid, err := Append(nil, sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	hashed, err := Append(nil, hashedSample())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid[:len(valid)-4])
	f.Add(hashed[:len(hashed)-4])
	f.Add(valid[:headerLen+trailerLen])
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := Decode(bytes.NewReader(seal(body)))
		if err != nil {
			return
		}
		out, err := Append(nil, s)
		if err != nil {
			t.Fatalf("re-encoding a decoded snapshot failed: %v", err)
		}
		s2, err := Decode(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("decoding a re-encoded snapshot failed: %v", err)
		}
		out2, err := Append(nil, s2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("canonical form unstable: %d vs %d bytes", len(out), len(out2))
		}
	})
}
