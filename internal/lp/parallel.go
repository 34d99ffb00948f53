package lp

import (
	"sync"
	"sync/atomic"
)

// lpChunkSize is the fixed work-partition grain for the chunked PDHG
// kernels. It is a constant — never a function of the worker count — so
// every chunk computes the identical floating-point partial and the
// serial fixed-order combination of those partials yields bit-identical
// results for any Options.Workers setting, including fully serial. 512
// variables × a handful of constraint rows keeps a chunk's working set
// inside L1/L2 while amortizing dispatch overhead.
const lpChunkSize = 512

// parallelMinDim is the live-column count below which Solve stays serial
// even when workers are available: under ~a thousand variables the pool
// dispatch and barrier costs outweigh the product parallelism. Live, not
// window: a 1 024-job window of which 16 can fit is a 16-variable solve.
const parallelMinDim = 1024

// workerPool executes chunk loops across a bounded set of goroutines.
// It is created per Solve (no goroutines outlive a solve) and closed by
// the owner. Work is shared through an atomic next-chunk counter, so
// scheduling is dynamic, but chunk results land in per-chunk slots that
// the caller combines serially in ascending chunk order — determinism
// never depends on which worker ran which chunk. One chunk loop is in
// flight at a time, so the counter and the barrier live in the pool and a
// run allocates nothing.
type workerPool struct {
	workers int
	runs    chan poolRun
	next    atomic.Int64
	wg      sync.WaitGroup
}

// poolRun is one chunk loop in flight: helpers drain the pool's counter
// until it passes limit.
type poolRun struct {
	w     *relaxation
	op    chunkOp
	limit int64
}

func (p *workerPool) drain(r poolRun) {
	for {
		c := p.next.Add(1) - 1
		if c >= r.limit {
			return
		}
		r.w.chunk(r.op, int(c))
	}
}

// newWorkerPool starts workers−1 helper goroutines; the goroutine
// calling run participates as the final worker, so a pool of 1 spawns
// nothing and runs serially.
func newWorkerPool(workers int) *workerPool {
	// Buffered to the worker count: run never sends more than workers−1.
	p := &workerPool{workers: workers, runs: make(chan poolRun, workers)}
	for i := 0; i < workers-1; i++ {
		go func() {
			for r := range p.runs {
				p.drain(r)
				p.wg.Done()
			}
		}()
	}
	return p
}

// run executes op on w's chunks 0..chunks-1, blocking until every chunk
// completed. A nil pool (or a single-worker pool, or a single chunk) runs
// the loop inline — the serial reference path.
func (p *workerPool) run(w *relaxation, op chunkOp, chunks int) {
	if p == nil || p.workers <= 1 || chunks <= 1 {
		for c := 0; c < chunks; c++ {
			w.chunk(op, c)
		}
		return
	}
	helpers := p.workers - 1
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
	r := poolRun{w: w, op: op, limit: int64(chunks)}
	p.next.Store(0)
	p.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		p.runs <- r
	}
	p.drain(r) // the calling goroutine is a worker too
	p.wg.Wait()
}

// close releases the helper goroutines. Safe on a nil pool.
func (p *workerPool) close() {
	if p != nil {
		close(p.runs)
	}
}
