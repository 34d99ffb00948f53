package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"bbsched/internal/job"
)

// recorder is a writer that keeps what it is given and the size of each
// write.
type recorder struct {
	bytes.Buffer
	writes []int
}

func (r *recorder) Write(p []byte) (int, error) {
	r.writes = append(r.writes, len(p))
	return r.Buffer.Write(p)
}

// edgeJobs returns 8 000 generated jobs, ≈ 330 KB of trace, with every
// oddUsers name and two extra columns when extra is set.
func edgeJobs(t testing.TB, extra bool) ([]*job.Job, []string) {
	t.Helper()
	jobs := job.CloneAll(Generate(GenConfig{System: testStreamSystem(), Jobs: 8000, Seed: 5, DependencyFraction: 0.2}).Jobs)
	if !extra {
		return jobs, nil
	}
	for i, j := range jobs {
		j.User = oddUsers[i%len(oddUsers)]
		j.Demand = job.NewDemandVector(j.Demand.NodeCount(), j.Demand.BB(), j.Demand.SSDPerNode(), int64(i), int64(i*i))
	}
	return jobs, []string{"power_kw", `odd,"name"`}
}

// ofSize returns the first jobs whose trace, header included, is exactly
// size bytes: the last one's user name is padded out to make it so.
func ofSize(t testing.TB, jobs []*job.Job, extra []string, size int) []*job.Job {
	t.Helper()
	n := len(appendCSVHeader(nil, extra))
	for i, j := range jobs[:len(jobs)-1] {
		rec := len(appendCSVRecord(nil, j, len(extra)))
		if n+rec+len(appendCSVRecord(nil, jobs[i+1], len(extra))) > size { // the next job would not fit
			pad := size - n - rec
			c := j.Clone()
			c.User = strings.Repeat("u", pad) + c.User
			if got := n + len(appendCSVRecord(nil, c, len(extra))); got != size {
				t.Fatalf("padded trace is %d bytes, want %d", got, size)
			}
			return append(jobs[:i:i], c)
		}
		n += rec
	}
	t.Fatalf("%d jobs make no trace of %d bytes", len(jobs), size)
	return nil
}

// writeAll writes jobs through a CSVWriter, checking after every Write
// whether the goroutine has started.
func writeAll(t *testing.T, dst io.Writer, jobs []*job.Job, extra []string) (w *CSVWriter, started bool) {
	t.Helper()
	w = NewCSVWriter(dst, extra...)
	for _, j := range jobs {
		if err := w.Write(j); err != nil {
			t.Fatal(err)
		}
		started = started || w.wb.full != nil
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.wb.full != nil {
		t.Fatal("Flush returned with the goroutine's ring kept")
	}
	return w, started
}

// TestWriteBehindMatchesReference: CSVWriter writes encoding/csv's bytes
// on traces around the block's edge; a trace under one block is written
// by one write from Flush with no goroutine, and one the size of
// replay-ga's grows no buffer to a block; a longer one is written in
// writes of at least a block each but the last.
func TestWriteBehindMatchesReference(t *testing.T) {
	plain, _ := edgeJobs(t, false)
	odd, names := edgeJobs(t, true)
	block := ofSize(t, plain, nil, writeBehindBlock)
	cases := []struct {
		name  string
		jobs  []*job.Job
		extra []string
	}{
		{"header only", nil, nil},
		{"header only, extras", nil, names},
		{"one job", plain[:1], nil},
		{"replay-ga sized", plain[:100], nil},
		{"one byte under a block", ofSize(t, plain, nil, writeBehindBlock-1), nil},
		{"exactly a block", block, nil},
		{"one byte over a block", ofSize(t, plain, nil, writeBehindBlock+1), nil},
		{"a record under a block", block[:len(block)-1], nil},
		{"a record over a block", append(block[:len(block):len(block)], plain[len(block)]), nil},
		{"exactly three blocks", ofSize(t, plain, nil, 3*writeBehindBlock), nil},
		{"several blocks", plain, nil},
		{"exactly two blocks, extras", ofSize(t, odd, names, 2*writeBehindBlock), names},
		{"several blocks, extras", odd, names},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want bytes.Buffer
			if err := referenceWriteCSV(&want, c.jobs, c.extra...); err != nil {
				t.Fatal(err)
			}
			var got recorder
			w, started := writeAll(t, &got, c.jobs, c.extra)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("CSVWriter wrote %d bytes, encoding/csv %d, and they differ", got.Len(), want.Len())
			}
			if want.Len() <= writeBehindBlock && len(got.writes) != 1 {
				t.Fatalf("a %d-byte trace took %d writes, want one", want.Len(), len(got.writes))
			}
			if want.Len() < writeBehindBlock && started {
				t.Fatalf("a %d-byte trace started the goroutine", want.Len())
			}
			if want.Len() < writeBehindBlock/2 && cap(w.wb.buf) >= writeBehindBlock {
				t.Fatalf("a %d-byte trace grew the buffer to a block, %d bytes", want.Len(), cap(w.wb.buf))
			}
			for i, n := range got.writes[:len(got.writes)-1] {
				if n < writeBehindBlock {
					t.Fatalf("write %d of %d handed on %d bytes, less than a block", i+1, len(got.writes), n)
				}
			}
		})
	}
}

var errWriteFailed = errors.New("write failed")

// failingWriter fails its fail-th write and every one after it, with
// errWriteFailed or, if short, by writing half of p with no error, and
// counts the writes made after the first failure.
type failingWriter struct {
	recorder
	fail, late int
	short      bool
}

func (f *failingWriter) Write(p []byte) (int, error) {
	switch n := len(f.writes) + 1; {
	case n > f.fail:
		f.late++
		fallthrough
	case n == f.fail:
		if f.short {
			return f.recorder.Write(p[:len(p)/2])
		}
		f.writes = append(f.writes, len(p))
		return 0, errWriteFailed
	}
	return f.recorder.Write(p)
}

// waitGoroutines waits for the goroutine count to fall back to before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the writer", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriteBehindFailingWriter: the n-th write's error, io.ErrShortWrite
// for a short one, comes back from a later Write or from Flush, and from every call after that; nothing is
// written after it; what came before it is the trace's first blocks; and
// the goroutine is gone.
func TestWriteBehindFailingWriter(t *testing.T) {
	plain, _ := edgeJobs(t, false)
	var want bytes.Buffer
	if err := referenceWriteCSV(&want, plain); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		fail  int
		short bool
		jobs  []*job.Job
	}{{1, false, plain[:100]}, {1, false, plain}, {2, false, plain}, {4, false, plain}, {1, true, plain[:100]}, {3, true, plain}} {
		t.Run(fmt.Sprintf("write %d of %d jobs, short %v", c.fail, len(c.jobs), c.short), func(t *testing.T) {
			before := runtime.NumGoroutine()
			dst := &failingWriter{fail: c.fail, short: c.short}
			errWant := errWriteFailed
			if c.short {
				errWant = io.ErrShortWrite
			}
			w := NewCSVWriter(dst)
			var err error
			for _, j := range c.jobs {
				if err = w.Write(j); err != nil {
					break
				}
			}
			if err == nil {
				err = w.Flush()
			}
			if !errors.Is(err, errWant) {
				t.Fatalf("write %d failed, the writer reported %v", c.fail, err)
			}
			if w.wb.full != nil {
				t.Fatal("the writer reported the error with its goroutine running")
			}
			if err := w.Write(plain[0]); !errors.Is(err, errWant) {
				t.Fatalf("Write after the error = %v", err)
			}
			if err := w.Flush(); !errors.Is(err, errWant) {
				t.Fatalf("Flush after the error = %v", err)
			}
			if dst.late > 0 || len(dst.writes) != c.fail {
				t.Fatalf("%d writes, %d of them after the failed one", len(dst.writes), dst.late)
			}
			if !bytes.HasPrefix(want.Bytes(), dst.Bytes()) {
				t.Fatal("the blocks written before the error are not the trace's first")
			}
			waitGoroutines(t, before)
		})
	}
}

// TestWriteBehindWriteAfterFlush: a writer written again after Flush
// writes the second run of blocks after the first, in order, and its
// second Flush stops the second goroutine.
func TestWriteBehindWriteAfterFlush(t *testing.T) {
	plain, _ := edgeJobs(t, false)
	var want bytes.Buffer
	if err := referenceWriteCSV(&want, plain); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	var got bytes.Buffer
	w := NewCSVWriter(&got)
	half := len(plain) / 2
	for _, run := range [][]*job.Job{plain[:half], plain[half:]} {
		started := false
		for _, j := range run {
			if err := w.Write(j); err != nil {
				t.Fatal(err)
			}
			started = started || w.wb.full != nil
		}
		if !started {
			t.Fatal("a run of several blocks started no goroutine")
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("two flushed runs differ from the trace written at once")
	}
	waitGoroutines(t, before)
}

// TestWriteBehindDroppedStopsGoroutine: a writer dropped unflushed, its
// goroutine started, stops that goroutine once it is collected.
func TestWriteBehindDroppedStopsGoroutine(t *testing.T) {
	plain, _ := edgeJobs(t, false)
	done := func() chan error {
		w := NewCSVWriter(io.Discard)
		for _, j := range plain {
			if err := w.Write(j); err != nil {
				t.Fatal(err)
			}
		}
		if w.wb.done == nil {
			t.Fatal("several blocks started no goroutine")
		}
		return w.wb.done
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("a dropped writer's goroutine is still running")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestWriteBehindSteadyStateAllocs: once its goroutine runs and every
// block of the ring has been filled, a Write allocates nothing.
func TestWriteBehindSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	plain, _ := edgeJobs(t, true)
	w := NewCSVWriter(io.Discard)
	write := func() {
		for _, j := range plain {
			if err := w.Write(j); err != nil {
				t.Fatal(err)
			}
		}
	}
	write() // several blocks: the ring is made and every block filled
	if allocs := testing.AllocsPerRun(3, write); allocs != 0 {
		t.Fatalf("%.0f allocations writing %d jobs in steady state", allocs, len(plain))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCSVWriterGz writes 200k generated jobs through a gzip.Writer
// at BestSpeed, as the bench's stream-1m set-up does: generation and
// formatting on the caller's goroutine, the deflate behind it. Compare
// -cpu 1 (both on one core) with -cpu 2.
func BenchmarkCSVWriterGz(b *testing.B) {
	const jobs = 200_000
	b.ReportAllocs()
	for b.Loop() {
		zw, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
		w := NewCSVWriter(zw)
		src := GenSource(GenConfig{System: testStreamSystem(), Jobs: jobs, Seed: 42})
		for {
			j, err := src.Next()
			if err == io.EOF {
				break
			}
			if err == nil {
				err = w.Write(j)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*jobs)/b.Elapsed().Seconds(), "jobs/s")
}
