package trace

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"bbsched/internal/job"
)

// Read-ahead for opened trace files. The file reads, the gunzip of a
// ".gz" trace and the decoding (CSV or SWF: header, sequence check, user
// names, job.NewPacked) run on a goroutine of their own, one per opened
// file, so a simulation that streams a trace spends its own core on
// scheduling, not on parsing. The goroutine decodes into a fixed ring of
// job batches and hands each full batch (on a pipe, also the jobs decoded
// before each read: see decoder.Read) to the reader over a channel; the
// reader hands it back once it has popped its jobs. Only OpenCSV,
// OpenSWF and OpenTrace read ahead: a decoder over a caller's reader
// (NewCSVSource, NewSWFSource) reads it synchronously.
//
// The ring holds two batches: while the engine works through one
// refill's jobs, the goroutine decodes the next, so a refill finds a whole
// batch waiting rather than one the goroutine is still filling.

// ReadAheadBatch is how many decoded jobs an opened file's read-ahead
// hands over at once. The engine's look-ahead (sim.Lookahead) is defined
// as it, so a refill takes one whole batch.
const ReadAheadBatch = 128

const readAheadBatches = 2

// batch is a run of decoded jobs, in file order, and the error (io.EOF at
// a clean end) that ends the stream after them.
type batch struct {
	jobs []*job.Job
	err  error
}

// readAhead is the reader's side of the ring. next is called on one
// goroutine only (a JobSource's Next is); the decoding goroutine touches a
// batch only between receiving it on free and sending it on full.
type readAhead struct {
	full    chan batch
	free    chan []*job.Job
	stop    chan struct{}
	done    chan struct{} // closed when the decoding goroutine has returned
	jobs    []*job.Job    // the batch being popped
	off     int           // how many of jobs have been popped
	err     error         // the stream's end, once its batch is received
	file    *os.File      // the file the goroutine reads, closed first
	gz      *gzip.Reader  // its decompressor, if any, closed once the goroutine stops
	cleanup runtime.Cleanup
}

// decoder is the goroutine's side: the decoder's Next, the batch it fills
// and the file the decoder reads through Read when its reads may block. It
// references none of the reader's side but the channels, so a dropped
// readAhead can be collected while it waits.
type decoder struct {
	next func() (*job.Job, error)
	full chan<- batch
	free <-chan []*job.Job
	stop <-chan struct{}
	done chan struct{}
	jobs []*job.Job // the batch being filled; nil until a free one is taken

	src io.Reader // the file, when its reads may block
}

// traceFile is an opened trace file, its bytes as a decoder reads them:
// gunzipped when the name ends in ".gz", and through dec when a read of
// it may block.
type traceFile struct {
	file *os.File
	gz   *gzip.Reader
	r    io.Reader // not an io.Closer: the read-ahead closes the file
	dec  *decoder
}

// openTraceFile opens path for streaming (see newTraceFile).
func openTraceFile(path string) (*traceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return newTraceFile(f, path)
}

// newTraceFile wraps a gzip decompressor around f when path ends in
// ".gz"; a bad gzip header fails here, and closes f.
func newTraceFile(f *os.File, path string) (*traceFile, error) {
	t := &traceFile{file: f, dec: &decoder{}}
	var r io.Reader = f
	if st, err := f.Stat(); err != nil || !st.Mode().IsRegular() {
		t.dec.src = f
		r = t.dec
	}
	if strings.HasSuffix(strings.ToLower(path), ".gz") {
		gz, err := gzip.NewReader(r)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("trace: %s: %w", path, err)
		}
		t.gz, r = gz, gz
	}
	t.r = struct{ io.Reader }{r}
	return t, nil
}

// close closes a file no read-ahead was started on.
func (t *traceFile) close() {
	if t.gz != nil {
		t.gz.Close()
	}
	t.file.Close()
}

// readAhead starts the goroutine that runs next, a decoder over t.r, ahead
// of the caller. A readAhead dropped without Close stops its goroutine
// when it is collected.
func (t *traceFile) readAhead(next func() (*job.Job, error)) *readAhead {
	ring := make([]*job.Job, readAheadBatches*ReadAheadBatch)
	r := &readAhead{
		full: make(chan batch, readAheadBatches+1),    // every batch and the end: a send never blocks
		free: make(chan []*job.Job, readAheadBatches), // every batch: the reader's send never blocks
		stop: make(chan struct{}),
		done: make(chan struct{}),
		file: t.file,
		gz:   t.gz,
	}
	for i := range readAheadBatches {
		r.free <- ring[i*ReadAheadBatch : i*ReadAheadBatch : (i+1)*ReadAheadBatch]
	}
	d := t.dec
	d.next, d.full, d.free, d.stop, d.done = next, r.full, r.free, r.stop, r.done
	go d.run()
	r.cleanup = runtime.AddCleanup(r, func(stop chan struct{}) { close(stop) }, r.stop)
	return r
}

// run is the decoding goroutine: it decodes jobs into free batches, in
// order, and sends each full one, until the decoder ends or fails (the
// end goes with the jobs before it) or stop closes.
func (d *decoder) run() {
	defer close(d.done)
	for {
		j, err := d.next()
		if err != nil {
			d.full <- batch{jobs: d.jobs, err: err}
			return
		}
		if d.jobs == nil {
			select {
			case d.jobs = <-d.free:
			case <-d.stop:
				return
			}
		}
		d.jobs = append(d.jobs, j)
		if len(d.jobs) == cap(d.jobs) {
			d.full <- batch{jobs: d.jobs}
			d.jobs = nil
		}
	}
}

// Read reads the file for the decoder, on a file whose reads may block
// (a pipe, a terminal, a socket). The jobs decoded so far go to the
// reader first, as a batch that is not full: a pipe whose writer sent
// less than a batch and stays open yields its jobs now, not once the
// writer closes. On a regular file the decoder reads the file itself,
// and every batch but the last is full.
func (d *decoder) Read(p []byte) (int, error) {
	if len(d.jobs) > 0 {
		d.full <- batch{jobs: d.jobs}
		d.jobs = nil
	}
	return d.src.Read(p)
}

// next pops the next decoded job, in file order, then returns the
// stream's own error, io.EOF included. A popped batch goes back to the
// goroutine, emptied, when the pop after its last job takes the next: its
// jobs are then the engine's look-ahead, and the goroutine decodes at
// most one batch beyond it. Once the error is returned the goroutine has
// returned, and the ring and its channels are released.
func (r *readAhead) next() (*job.Job, error) {
	for r.off == len(r.jobs) {
		if r.err != nil {
			r.release()
			return nil, r.err
		}
		if r.jobs != nil {
			clear(r.jobs)
			r.free <- r.jobs[:0]
		}
		b := <-r.full
		r.jobs, r.off, r.err = b.jobs, 0, b.err
	}
	j := r.jobs[r.off]
	r.off++
	return j, nil
}

// release waits for the goroutine to return and drops the ring.
func (r *readAhead) release() {
	if r.full == nil {
		return
	}
	r.cleanup.Stop()
	close(r.stop)
	<-r.done
	r.full, r.free, r.jobs, r.off = nil, nil, nil, 0
}

// Close ends the stream, mid-stream or after the end: it closes the file,
// which ends a read in flight on it (one on a stalled pipe included),
// waits for the goroutine to stop, and then closes the decompressor, which
// only the goroutine reads. Later pops return io.ErrClosedPipe; a second
// Close is a no-op.
func (r *readAhead) Close() error {
	if r.file == nil {
		return nil
	}
	err := r.file.Close()
	r.release()
	if r.gz != nil {
		if gerr := r.gz.Close(); err == nil {
			err = gerr
		}
	}
	r.file, r.gz = nil, nil
	if r.err == nil {
		r.err = io.ErrClosedPipe
	}
	return err
}
