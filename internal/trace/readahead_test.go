package trace

import (
	"bytes"
	"compress/gzip"
	"fmt"
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
// pops fail instead of blocking, and a second Close is a no-op.
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
	for len(ra.free) > 0 { // the goroutine takes every batch of the ring
		runtime.Gosched()
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if !stopped(ra.done) {
		t.Fatal("Close returned before the read-ahead goroutine did")
	}
	if ra.full != nil || ra.jobs != nil {
		t.Fatal("Close kept the ring")
	}
	if j, err := ra.next(); j != nil || err == nil {
		t.Fatalf("pop after Close = %v, %v", j, err)
	}
	if j, err := src.Next(); j != nil || err == nil {
		t.Fatalf("Next after Close = %v, %v", j, err)
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
	// More than a batch, less than the pipe holds: the goroutine decodes
	// what the pipe holds, then waits in a read for more.
	if _, err := pw.Write(generatedCSV(t, 150)); err != nil {
		t.Fatal(err)
	}
	src, err := openPipeCSV(pr)
	if err != nil {
		t.Fatal(err)
	}
	ra := readAheadOf(t, src.closer)
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
// sent a header and ten jobs, less than a batch, and stays open yields
// those jobs without waiting for the writer to close.
func TestReadAheadPipeShortWrite(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 10
	if jobs >= ReadAheadBatch {
		t.Fatalf("%d jobs fill a %d-job batch", jobs, ReadAheadBatch)
	}
	if _, err := pw.Write(generatedCSV(t, jobs)); err != nil {
		t.Fatal(err)
	}
	var src *CSVSource
	got := make(chan error, 1)
	go func() {
		var err error
		if src, err = openPipeCSV(pr); err == nil {
			for range jobs {
				if _, err = src.Next(); err != nil {
					break
				}
			}
		}
		got <- err
	}()
	select {
	case err := <-got:
		pw.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.Next(); err != io.EOF {
			t.Fatalf("after the writer closed: %v, want io.EOF", err)
		}
	case <-time.After(2 * time.Second):
		pw.Close() // the end of the input lets the reader return
		<-got
		t.Fatalf("not %d jobs within 2 s of the write while the writer stays open", jobs)
	}
}

// openPipeCSV opens the read end of a pipe as OpenCSV opens a file.
func openPipeCSV(pr *os.File) (*CSVSource, error) {
	tf, err := newTraceFile(pr, "pipe.csv")
	if err != nil {
		return nil, err
	}
	return tf.openCSV()
}

// TestReadAheadDrainedHoldsNoRing: a source read to its end, clean or
// failed, has stopped its goroutine and released the ring, its batches
// and the file, for CSV and SWF, plain and gzipped.
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
		if !stopped(ra.done) || ra.full != nil || ra.free != nil || ra.jobs != nil || ra.file != nil {
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

// TestReadAheadMatchesDecoder: OpenTrace yields, field by field, the jobs
// the synchronous decoder reads from the same bytes, then the same error
// text, for CSV and SWF, plain and gzipped, on traces that end short of,
// at and past a batch, clean and with a bad record at each of those
// places. A regular file's batches are whole but for the last.
func TestReadAheadMatchesDecoder(t *testing.T) {
	sizes := []int{0, 1, ReadAheadBatch - 1, ReadAheadBatch, ReadAheadBatch + 1, 3*ReadAheadBatch + 7}
	jobs := Generate(GenConfig{System: testStreamSystem(), Jobs: sizes[len(sizes)-1], Seed: 3, DependencyFraction: 0.1}).Jobs
	formats := []struct {
		ext   string
		write func(w io.Writer, jobs []*job.Job) error
		bad   []string // a record the decoder refuses, one per kind
		sync  func(data []byte) (JobSource, error)
	}{
		{".csv", func(w io.Writer, jobs []*job.Job) error { return WriteCSV(w, jobs) },
			[]string{"x,u,0,10,10,1,0,0,0,\n", "0,u\"v,0,10,10,1,0,0,0,\n", "0,u,0,10,10,1,0,0\n", "7,u,0,10,10,1,0,0,0,\n"},
			func(data []byte) (JobSource, error) { return NewCSVSource(bytes.NewReader(data)) }},
		{".swf", func(w io.Writer, jobs []*job.Job) error { return WriteSWF(w, jobs, 1) },
			[]string{"1 0 -1 100 64\n", "1 0 -1 x 64 -1 -1 64 200 -1 1 3 -1 -1 -1 -1 -1 -1\n"},
			func(data []byte) (JobSource, error) { return NewSWFSource(bytes.NewReader(data), SWFOptions{}), nil }},
	}
	for _, f := range formats {
		for _, n := range sizes {
			var trace bytes.Buffer
			if err := f.write(&trace, jobs[:n]); err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(trace.Bytes(), []byte("\n"))
			lines = lines[:len(lines)-1] // the empty rest after the last newline
			head := len(lines) - n       // the header or comment lines before the first job
			inputs := map[string][]byte{"clean": trace.Bytes()}
			for k, at := range sizes {
				if at > n {
					continue
				}
				bad := append(bytes.Join(lines[:head+at], nil), f.bad[k%len(f.bad)]...)
				inputs[fmt.Sprintf("bad@%d", at)] = append(bad, bytes.Join(lines[head+at:], nil)...)
			}
			for name, data := range inputs {
				for _, gz := range []bool{false, true} {
					file, path := data, "trace"+f.ext
					if gz {
						file, path = gzipped(t, data), path+".gz"
					}
					label := fmt.Sprintf("%s/%d/%s", path, n, name)
					want, wantErr := collectUntilError(f.sync(data))
					opened, err := OpenTrace(writeFile(t, path, file), SWFOptions{})
					got, gotErr := collectBatches(t, label, opened, err)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: OpenTrace read %d jobs, the decoder %d, or not the same jobs", label, len(got), len(want))
					}
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Errorf("%s: OpenTrace ended on %v, the decoder on %v", label, gotErr, wantErr)
					}
				}
			}
		}
	}
}

// collectBatches is collectUntilError over an opened source that also
// checks that every batch it pops but the last is whole.
func collectBatches(t *testing.T, label string, src JobSource, openErr error) ([]*job.Job, error) {
	t.Helper()
	if openErr != nil {
		return nil, openErr
	}
	var ra *readAhead
	switch s := src.(type) {
	case *CSVSource:
		ra = readAheadOf(t, s.closer)
	case *SWFSource:
		ra = readAheadOf(t, s.closer)
	}
	var jobs []*job.Job
	short := -1 // the first batch that was not whole
	for {
		j, err := src.Next()
		if err == io.EOF {
			return jobs, nil
		}
		if err != nil {
			return jobs, err
		}
		if ra.off == 1 && len(ra.jobs) < ReadAheadBatch && short < 0 {
			short = len(jobs)
		} else if ra.off == 1 && short >= 0 {
			t.Errorf("%s: the batch that starts at job %d is short and not the last", label, short)
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
// OpenTrace: the gunzip and the decoding on the read-ahead goroutine, the
// pops on the caller's. Compare -cpu 1 (both on one core) with -cpu 2.
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
