package trace

import (
	"io"
	"runtime"
)

// Read-ahead for opened trace files. The file reads and the gunzip of a
// ".gz" trace run on a goroutine of their own, one per opened file, so a
// simulation that streams a trace spends its own core on decoding records
// and scheduling them, not on decompressing. The goroutine reads into a
// fixed ring of blocks, one read per block, and hands each to the reader
// over a channel; the reader hands it back once consumed. Only OpenCSV, OpenSWF and
// OpenTrace read ahead: a decoder over a caller's reader
// (NewCSVSource, NewSWFSource) reads it synchronously.

const (
	readAheadBlocks    = 4
	readAheadBlockSize = 4 << 10
)

// chunk is one read's bytes, or the read error (io.EOF at a clean end)
// that ends the stream after the blocks before it.
type chunk struct {
	buf []byte
	err error
}

// readAhead is the reader's side of the ring. Read is called on one
// goroutine only (a JobSource's Next is); the filling goroutine touches a
// block only between receiving it on free and sending it on full.
type readAhead struct {
	full    chan chunk
	free    chan []byte
	stop    chan struct{}
	done    chan struct{} // closed when the filling goroutine has returned
	blk     []byte        // the block being read
	off     int           // how much of blk has been read
	err     error         // the stream's end, once its chunk is read
	file    io.Closer     // the file the goroutine reads, closed first
	gz      io.Closer     // its decompressor, if any, closed once the goroutine stops
	cleanup runtime.Cleanup
}

// newReadAhead starts the goroutine that reads file ahead of the caller,
// through gz when gz is not nil (gz then reads file). A readAhead dropped
// without Close stops its goroutine when it is collected.
func newReadAhead(file, gz io.ReadCloser) *readAhead {
	var src io.Reader = file
	if gz != nil {
		src = gz
	}
	ring := make([]byte, readAheadBlocks*readAheadBlockSize)
	r := &readAhead{
		full: make(chan chunk, readAheadBlocks+1), // every block and the end: a send never blocks
		free: make(chan []byte, readAheadBlocks),  // every block: the reader's send never blocks
		stop: make(chan struct{}),
		done: make(chan struct{}),
		file: file,
		gz:   gz,
	}
	for i := range readAheadBlocks {
		r.free <- ring[i*readAheadBlockSize : (i+1)*readAheadBlockSize : (i+1)*readAheadBlockSize]
	}
	go fillAhead(src, r.full, r.free, r.stop, r.done)
	r.cleanup = runtime.AddCleanup(r, func(stop chan struct{}) { close(stop) }, r.stop)
	return r
}

// fillAhead is the filling goroutine: it reads src into free blocks, in
// order, until a read fails or ends, or stop closes. It references none
// of the reader's side but its channels, so a dropped readAhead can be
// collected while it waits.
func fillAhead(src io.Reader, full chan<- chunk, free <-chan []byte, stop, done chan struct{}) {
	defer close(done)
	for {
		var buf []byte
		select {
		case buf = <-free:
		case <-stop:
			return
		}
		n, err := readBlock(src, buf)
		if n > 0 {
			full <- chunk{buf: buf[:n]}
		}
		if err != nil {
			full <- chunk{err: err}
			return
		}
	}
}

// readBlock reads into buf until a read yields bytes or fails, and hands
// on what that read gave: a pipe whose writer sent less than a block and
// stays open yields its jobs now, not once the writer closes. The
// stream's own error is kept, io.EOF included.
func readBlock(src io.Reader, buf []byte) (int, error) {
	for {
		if n, err := src.Read(buf); n > 0 || err != nil {
			return n, err
		}
	}
}

// Read implements io.Reader over the filled blocks, in file order, then
// the stream's own error. Once that is read the goroutine has returned,
// and the ring and its channels are released.
func (r *readAhead) Read(p []byte) (int, error) {
	for r.off == len(r.blk) {
		if r.full == nil {
			return 0, r.err
		}
		if r.blk != nil {
			r.free <- r.blk[:cap(r.blk)]
		}
		c := <-r.full
		r.blk, r.off = c.buf, 0
		if c.err != nil {
			r.err = c.err
			r.release()
		}
	}
	n := copy(p, r.blk[r.off:])
	r.off += n
	return n, nil
}

// release waits for the goroutine to return and drops the ring.
func (r *readAhead) release() {
	if r.full == nil {
		return
	}
	r.cleanup.Stop()
	close(r.stop)
	<-r.done
	r.full, r.free, r.blk, r.off = nil, nil, nil, 0
}

// Close ends the stream, mid-stream or after the end: it closes the file,
// which ends a read in flight on it (one on a stalled pipe included),
// waits for the goroutine to stop, and then closes the decompressor, which
// only the goroutine reads. Later reads return io.ErrClosedPipe; a second
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
