package trace

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"bbsched/internal/job"
)

// generatedCSV is a generated trace of n jobs in the repository format.
func generatedCSV(t testing.TB, n int) []byte {
	t.Helper()
	var b bytes.Buffer
	w := Generate(GenConfig{System: testStreamSystem(), Jobs: n, Seed: 9, DependencyFraction: 0.1})
	if err := WriteCSV(&b, w.Jobs); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func gzipped(t testing.TB, raw []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func writeFile(t testing.TB, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readAheadOf returns the read-ahead reader behind an opened source.
func readAheadOf(t *testing.T, closer io.Closer) *readAhead {
	t.Helper()
	ra, ok := closer.(*readAhead)
	if !ok {
		t.Fatalf("opened source reads through %T, not a read-ahead", closer)
	}
	return ra
}

// stopped reports whether a read-ahead's goroutine has returned.
func stopped(done chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// TestReadAheadCloseMidStream: Close on a source whose goroutine has
// filled the ring and waits returns, with that goroutine gone; later
// reads fail instead of blocking, and a second Close is a no-op.
func TestReadAheadCloseMidStream(t *testing.T) {
	path := writeFile(t, "trace.csv.gz", gzipped(t, generatedCSV(t, 5000)))
	before := runtime.NumGoroutine()
	src, err := OpenCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	ra := readAheadOf(t, src.closer)
	for range 10 {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for len(ra.free) > 0 { // the goroutine takes every block of the ring
		runtime.Gosched()
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if !stopped(ra.done) {
		t.Fatal("Close returned before the read-ahead goroutine did")
	}
	if ra.full != nil || ra.blk != nil {
		t.Fatal("Close kept the ring")
	}
	if n, err := ra.Read(make([]byte, 8)); n != 0 || err == nil {
		t.Fatalf("Read after Close = %d, %v", n, err)
	}
	if err := src.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the open", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadAheadCloseStalledPipe: Close returns while the goroutine waits
// in a read on a pipe whose writer has stalled, and that goroutine stops.
func TestReadAheadCloseStalledPipe(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()
	// More than a block, less than the pipe holds: the goroutine hands on
	// what the pipe holds, then waits in a read for more.
	if _, err := pw.Write(generatedCSV(t, 150)); err != nil {
		t.Fatal(err)
	}
	ra := newReadAhead(pr, nil)
	src, err := NewCSVSource(ra)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- src.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close waits on the stalled pipe")
	}
	if !stopped(ra.done) {
		t.Fatal("Close returned before the read-ahead goroutine did")
	}
}

// TestReadAheadPipeShortWrite: a trace read from a pipe whose writer has
// sent a header and ten jobs, less than a block, and stays open yields its
// first job without waiting for the writer to close.
func TestReadAheadPipeShortWrite(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	data := generatedCSV(t, 10)
	if len(data) >= readAheadBlockSize {
		t.Fatalf("%d B of trace fill a %d B block", len(data), readAheadBlockSize)
	}
	if _, err := pw.Write(data); err != nil {
		t.Fatal(err)
	}
	ra := newReadAhead(pr, nil)
	defer ra.Close()
	first := make(chan error, 1)
	go func() {
		src, err := NewCSVSource(ra)
		if err == nil {
			_, err = src.Next()
		}
		first <- err
	}()
	select {
	case err := <-first:
		pw.Close()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		pw.Close() // the end of the input lets the reader return
		<-first
		t.Fatal("no job within 2 s of the write while the writer stays open")
	}
}

// TestReadAheadDrainedHoldsNoRing: a source read to its end, clean or
// failed, has stopped its goroutine and released the ring and the file,
// for CSV and SWF, plain and gzipped.
func TestReadAheadDrainedHoldsNoRing(t *testing.T) {
	raw := generatedCSV(t, 3000)
	gz := gzipped(t, raw)
	var swf bytes.Buffer
	if err := WriteSWF(&swf, Generate(GenConfig{System: testStreamSystem(), Jobs: 500, Seed: 2}).Jobs, 1); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		fail bool
	}{
		{"trace.csv", raw, false},
		{"trace.csv.gz", gz, false},
		{"log.swf.gz", gzipped(t, swf.Bytes()), false},
		{"cut.csv.gz", gz[:len(gz)/2], true},
	} {
		src, err := OpenTrace(writeFile(t, c.name, c.data), SWFOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var ra *readAhead
		switch s := src.(type) {
		case *CSVSource:
			ra = readAheadOf(t, s.closer)
		case *SWFSource:
			ra = readAheadOf(t, s.closer)
		}
		if _, err := Collect(src); (err != nil) != c.fail {
			t.Fatalf("%s: drain error %v", c.name, err)
		}
		if !stopped(ra.done) || ra.full != nil || ra.free != nil || ra.blk != nil || ra.file != nil {
			t.Errorf("%s: drained source still holds its goroutine, ring or file", c.name)
		}
	}
}

// TestReadAheadTruncatedGzip: a .csv.gz cut anywhere yields the jobs the
// encoding/csv oracle reads from the same bytes, then an error at the
// same line, through the read-ahead opener and through a decoder over
// the caller's reader.
func TestReadAheadTruncatedGzip(t *testing.T) {
	gz := gzipped(t, generatedCSV(t, 3000))
	for _, cut := range []int{40, len(gz) / 7, len(gz) / 3, len(gz) / 2, len(gz) - 9, len(gz) - 1} {
		data := gz[:cut]
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		ref, rerr := newReferenceCSVSource(zr)
		want, wantErr := collectUntilError(ref, rerr)

		opened, err := OpenCSV(writeFile(t, "cut.csv.gz", data))
		got, gotErr := collectUntilError(opened, err)
		if !reflect.DeepEqual(got, want) || !sameError(gotErr, wantErr) {
			t.Errorf("cut at %d: OpenCSV read %d jobs then %v; encoding/csv %d then %v", cut, len(got), gotErr, len(want), wantErr)
		}
		zr, _ = gzip.NewReader(bytes.NewReader(data))
		direct, err := NewCSVSource(zr)
		got, gotErr = collectUntilError(direct, err)
		if !reflect.DeepEqual(got, want) || !sameError(gotErr, wantErr) {
			t.Errorf("cut at %d: NewCSVSource read %d jobs then %v; encoding/csv %d then %v", cut, len(got), gotErr, len(want), wantErr)
		}
		if wantErr == nil {
			t.Errorf("cut at %d: no error", cut)
		}
	}
}

// collectUntilError drains src, returning the jobs read before the error
// that ended it (nil at a clean end).
func collectUntilError(src JobSource, openErr error) ([]*job.Job, error) {
	if openErr != nil {
		return nil, openErr
	}
	var jobs []*job.Job
	for {
		j, err := src.Next()
		if err == io.EOF {
			return jobs, nil
		}
		if err != nil {
			return jobs, err
		}
		jobs = append(jobs, j)
	}
}

// TestReadAheadDroppedStopsGoroutine: a source dropped mid-stream without
// Close stops its goroutine once it is collected.
func TestReadAheadDroppedStopsGoroutine(t *testing.T) {
	path := writeFile(t, "trace.csv.gz", gzipped(t, generatedCSV(t, 5000)))
	done := func() chan struct{} {
		src, err := OpenCSV(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
		return readAheadOf(t, src.closer).done
	}()
	for deadline := time.Now().Add(10 * time.Second); !stopped(done); {
		if time.Now().After(deadline) {
			t.Fatal("a dropped source's read-ahead goroutine is still running")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkOpenTraceCSVGz drains a generated 200k-job .csv.gz through
// OpenTrace: the gunzip on the read-ahead goroutine, the decoding on the
// caller's. Compare -cpu 1 (both on one core) with -cpu 2.
func BenchmarkOpenTraceCSVGz(b *testing.B) {
	const jobs = 200_000
	path := writeFile(b, "trace.csv.gz", gzipped(b, generatedCSV(b, jobs)))
	b.ReportAllocs()
	for b.Loop() {
		src, err := OpenTrace(path, SWFOptions{})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for ; ; n++ {
			if _, err := src.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		if n != jobs {
			b.Fatalf("drained %d jobs, want %d", n, jobs)
		}
	}
	b.ReportMetric(float64(b.N*jobs)/b.Elapsed().Seconds(), "jobs/s")
}
