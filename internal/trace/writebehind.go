package trace

import (
	"io"
	"runtime"
)

// Write-behind for written traces, the mirror of readahead.go. CSVWriter
// appends records into a block of its own; once the block holds
// writeBehindBlock bytes it is handed over a channel to a goroutine that
// writes it to the caller's writer, and the next records go into a free
// block. Under a gzip.Writer the deflate then runs on that goroutine while
// the caller generates and formats the next block. The goroutine starts
// with the first full block: a shorter trace never starts it and never
// allocates a block, and Flush writes it on the caller's goroutine.

const (
	writeBehindBlocks = 3
	writeBehindBlock  = 64 << 10
	// writeBehindSlack is room past a block's edge for the record that
	// crosses it; a longer record grows its block once.
	writeBehindSlack = 4 << 10
)

// writeBehind is the caller's side of the ring. The caller appends to buf
// and calls spill after each record; the writing goroutine touches a block
// only between receiving it on full and sending it back on free.
type writeBehind struct {
	dst     io.Writer
	buf     []byte      // the block being filled
	err     error       // the first write error: every later call returns it
	full    chan []byte // blocks to write, in order; nil while no goroutine runs
	free    chan []byte // written blocks, back for reuse
	stop    chan struct{}
	done    chan error // the goroutine's first write error, or nil, as it returns
	cleanup runtime.Cleanup
}

// spill hands buf on once it holds a full block, starting the goroutine
// with the first, and reports a write error the goroutine has returned on.
func (wb *writeBehind) spill() error {
	if len(wb.buf) < writeBehindBlock {
		return nil
	}
	if wb.full == nil {
		wb.start()
	}
	select {
	case next := <-wb.free:
		wb.full <- wb.buf
		wb.buf = next[:0]
	case err := <-wb.done:
		wb.stopped(err)
	}
	return wb.err
}

// start makes the ring and starts the goroutine that writes it. A
// writeBehind dropped before Flush stops its goroutine when it is
// collected.
func (wb *writeBehind) start() {
	// Both hold every block, so no send on either ever blocks.
	wb.full = make(chan []byte, writeBehindBlocks)
	wb.free = make(chan []byte, writeBehindBlocks)
	wb.stop = make(chan struct{})
	wb.done = make(chan error, 1)
	for range writeBehindBlocks - 1 { // buf is the last
		wb.free <- make([]byte, 0, writeBehindBlock+writeBehindSlack)
	}
	go writeBlocks(wb.dst, wb.full, wb.free, wb.stop, wb.done)
	wb.cleanup = runtime.AddCleanup(wb, func(stop chan struct{}) { close(stop) }, wb.stop)
}

// writeBlocks is the writing goroutine: it writes the blocks on full to
// dst, in order, until full closes, a write fails or stop closes. It
// references none of the caller's side but its channels, so a dropped
// writeBehind can be collected while it waits.
func writeBlocks(dst io.Writer, full <-chan []byte, free chan<- []byte, stop <-chan struct{}, done chan<- error) {
	var err error
	defer func() { done <- err }()
	for {
		select {
		case b, ok := <-full:
			if !ok {
				return
			}
			if err = writeBlock(dst, b); err != nil {
				return
			}
			free <- b
		case <-stop:
			return
		}
	}
}

// writeBlock writes b whole, as bufio.Writer does: a short write with no
// error is io.ErrShortWrite.
func writeBlock(dst io.Writer, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	n, err := dst.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	return err
}

// flush writes what is buffered and reports the first write error. With
// no goroutine running it writes buf itself; otherwise it hands buf on and
// waits for the goroutine to write every block and return. Writing may
// resume after it: the next full block starts a new goroutine.
func (wb *writeBehind) flush() error {
	if wb.err != nil {
		return wb.err
	}
	if wb.full == nil {
		wb.err = writeBlock(wb.dst, wb.buf)
		wb.buf = wb.buf[:0]
		return wb.err
	}
	if len(wb.buf) > 0 {
		wb.full <- wb.buf
		wb.buf = nil
	}
	close(wb.full)
	wb.stopped(<-wb.done)
	return wb.err
}

// stopped records the result of a goroutine that has returned, keeps a
// written block to fill next, and drops the ring.
func (wb *writeBehind) stopped(err error) {
	wb.cleanup.Stop()
	wb.err = err
	if wb.buf == nil {
		select {
		case b := <-wb.free:
			wb.buf = b[:0]
		default:
		}
	}
	wb.full, wb.free, wb.stop, wb.done = nil, nil, nil, nil
}
