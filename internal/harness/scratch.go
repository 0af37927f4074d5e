package harness

import (
	"m2hew/internal/sim"
)

// Scratch is the per-worker bundle of reusable engine state RunScratch
// threads through the pool: one sync and one async engine scratch, allocated
// lazily so workers that only run one engine pay for one. A Scratch belongs
// to exactly one worker goroutine for the duration of one RunScratch call
// and is dropped afterwards, which keeps the network-keyed caches inside the
// engine scratches safe even for callers that mutate networks between
// batches (a new batch always starts from empty scratches).
//
// The zero value is ready to use.
type Scratch struct {
	syncSc  *sim.SyncScratch
	asyncSc *sim.AsyncScratch
}

// Sync returns the worker's synchronous engine scratch, for
// sim.SyncConfig.Scratch.
func (s *Scratch) Sync() *sim.SyncScratch {
	if s.syncSc == nil {
		s.syncSc = sim.NewSyncScratch()
	}
	return s.syncSc
}

// Async returns the worker's asynchronous engine scratch, for
// sim.AsyncConfig.Scratch.
func (s *Scratch) Async() *sim.AsyncScratch {
	if s.asyncSc == nil {
		s.asyncSc = sim.NewAsyncScratch()
	}
	return s.asyncSc
}
