// Package tilepool provides the fork-join worker pool of the tiled sync
// engine: repeatedly run an indexed function over [0, n) with all workers
// stealing chunks from a shared atomic cursor, with a full barrier between
// runs.
//
// It is deliberately independent of internal/sim (which cannot import
// internal/harness — harness sits above sim) and of internal/harness's
// trial pipeline (which parallelizes across whole trials, not within one).
// The contract the parallel sync path needs is narrow: Run(n, fn) returns
// only after every index has been processed exactly once, and everything
// the workers wrote happens-before Run's return (each slot's decide and
// resolve rounds are one Run call each). Determinism is the caller's
// problem: fn must confine its writes to per-index state, which is exactly
// what the per-chunk scratch does.
package tilepool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed set of workers executing indexed fork-join rounds. The
// zero value is not usable; call New. A Pool is not safe for concurrent
// Run calls — the tiled engine issues them strictly in sequence.
type Pool struct {
	workers int

	// Per-round state, published to workers by the start channel send
	// (happens-before their reads) and read back by the caller after
	// wg.Wait (their writes happen-before the barrier release).
	fn     func(int)
	n      int
	cursor atomic.Int64
	wg     sync.WaitGroup

	start  chan struct{}
	closed bool
}

// New creates a pool that runs rounds on `workers` goroutines total: the
// caller participates, so workers-1 background goroutines are spawned.
// workers < 1 (or 0 for "pick for me") selects GOMAXPROCS. Close must be
// called to release the background goroutines.
func New(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, start: make(chan struct{})}
	for i := 1; i < workers; i++ {
		go func() {
			for range p.start {
				p.work()
				p.wg.Done()
			}
		}()
	}
	return p
}

// Workers returns the pool's parallelism (caller included).
func (p *Pool) Workers() int { return p.workers }

// Run executes fn(i) for every i in [0, n) across the pool and returns
// after all calls complete. Writes made by fn happen-before Run returns.
// fn must not panic: a panic in a background worker crashes the process
// (as it would in any goroutine).
func (p *Pool) Run(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.fn = fn
	p.n = n
	p.cursor.Store(0)
	p.wg.Add(p.workers - 1)
	for i := 1; i < p.workers; i++ {
		p.start <- struct{}{}
	}
	p.work()
	p.wg.Wait()
	p.fn = nil
}

// work drains the round's cursor in chunks. Chunking amortizes the atomic
// per ~4 steals per worker while still load-balancing uneven tiles.
func (p *Pool) work() {
	n := int64(p.n)
	chunk := n / int64(p.workers*4)
	if chunk < 1 {
		chunk = 1
	}
	for {
		lo := p.cursor.Add(chunk) - chunk
		if lo >= n {
			return
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			p.fn(int(i))
		}
	}
}

// Close releases the background workers. The pool must be idle (no Run in
// flight). Close is idempotent.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.start)
}
