package sim

import (
	"fmt"
	"slices"

	"m2hew/internal/clock"
	"m2hew/internal/dynamics"
	"m2hew/internal/metrics"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// SyncScratch holds the per-run state of RunSync for reuse across runs, so a
// worker executing thousands of trials stops rebuilding the same tables every
// trial. A scratch belongs to one goroutine at a time; runs borrow it for
// their whole duration. The zero value is not ready — use NewSyncScratch.
//
// Reuse is invisible in results: every buffer is either fully overwritten
// before it is read (actions, candidate masks) or re-zeroed on acquisition
// (the transmitter masks and the chunks' lists and errors), and no scratch
// state feeds an rng draw. The derived network tables (shared message
// availability sets, coverage target index, candidate masks) are cached
// keyed by network pointer; a caller that mutates a network in place
// between runs must call Reset (or use a fresh scratch) so the tables are
// rebuilt.
type SyncScratch struct {
	netTables
	// epochMasks is the dynamic runs' candidate masks, recompiled in place
	// from each changed epoch snapshot; it never aliases the network's
	// cached masks.
	epochMasks candMasks

	// The slot pipeline's buffers (see slotState): the NodeID chunks, which
	// keep their listener lists and heard-list buffers across runs, the
	// transmitter masks and the per-channel transmitter slots.
	chunks []nodeChunk
	tx     []uint64
	txSlot []int

	actions []radio.Action
	locals  []int

	// Per-run node tables: single-word availability masks and the
	// heard-reporter cache.
	avail1 []uint64
	hrs    []HeardReporter
}

// NewSyncScratch returns an empty scratch ready for use.
func NewSyncScratch() *SyncScratch {
	return &SyncScratch{}
}

// Reset invalidates the network-derived caches. Buffer capacity is kept.
func (sc *SyncScratch) Reset() {
	sc.reset()
}

// slotState returns a run's count NodeID chunks over n nodes (chunkBounds),
// its transmitter masks for channels channels and its per-channel
// transmitter slots, reusing scratch capacity and re-zeroing all three: an
// errored previous run may have returned mid-slot with live bits, lists
// and errors in place.
func (sc *SyncScratch) slotState(n, channels, count int) ([]nodeChunk, []uint64, []int) {
	sc.tx = resize(sc.tx, channels*((n+63)/64))
	clear(sc.tx)
	sc.txSlot = resize(sc.txSlot, channels)
	for c := range sc.txSlot {
		sc.txSlot[c] = -1
	}
	if len(sc.chunks) < count {
		sc.chunks = append(sc.chunks, make([]nodeChunk, count-len(sc.chunks))...)
	}
	chunks := sc.chunks[:count]
	for i := range chunks {
		ch := &chunks[i]
		ch.lo, ch.hi = chunkBounds(i, count, n)
		ch.txOn = resize(ch.txOn, channels)
		clear(ch.txOn)
		ch.txTouched = slices.Grow(ch.txTouched[:0], channels)
		ch.rxU = slices.Grow(ch.rxU[:0], int(ch.hi-ch.lo))
		ch.rxC = slices.Grow(ch.rxC[:0], int(ch.hi-ch.lo))
		ch.err, ch.errNode = nil, 0
		ch.deferred = ch.deferred[:0]
	}
	return chunks, sc.tx, sc.txSlot
}

// actionBuf returns the per-node action buffer, grown to n. Entries are
// fully overwritten each slot before being read.
func (sc *SyncScratch) actionBuf(n int) []radio.Action {
	if cap(sc.actions) < n {
		sc.actions = make([]radio.Action, n)
	}
	return sc.actions[:n]
}

// availBuf returns the per-node single-word availability mask buffer,
// reusing scratch capacity; the caller refills the contents every run.
func (sc *SyncScratch) availBuf(n int) []uint64 {
	if cap(sc.avail1) < n {
		sc.avail1 = make([]uint64, n)
	}
	return sc.avail1[:n]
}

// heardReporters returns the per-run heard-reporter cache, grown to n and
// cleared; the run's setup fills the reporting protocols' entries.
func (sc *SyncScratch) heardReporters(n int) []HeardReporter {
	if cap(sc.hrs) < n {
		sc.hrs = make([]HeardReporter, n)
	}
	hrs := sc.hrs[:n]
	clear(hrs)
	return hrs
}

// localSlotBuf returns the per-node local-slot counters of a dynamic run,
// zeroed: a node's decision index is its count of active slots so far, and
// every run starts that count at zero.
func (sc *SyncScratch) localSlotBuf(n int) []int {
	if cap(sc.locals) < n {
		sc.locals = make([]int, n)
	}
	locals := sc.locals[:n]
	for i := range locals {
		locals[i] = 0
	}
	return locals
}

// AsyncScratch holds the per-run state of RunAsync for reuse across runs:
// the clock timelines and pooled random-walk rate memos, the frame tables
// and frame index, the transmit bucket table, the compiled candidate masks
// (per network, and per epoch of a dynamic run), the reception resolver's
// buffers and the frame queue.
// A scratch belongs to one goroutine at a time; runs borrow it for their
// whole duration. The zero value is not ready — use NewAsyncScratch.
//
// Reuse is invisible in results: timelines are reset in place, frame tables
// are re-sliced empty before the run appends to them, resolver buffers
// already carried per-frame reuse semantics within a run, the frame queue
// is refilled from empty, and no scratch state feeds an rng draw. The
// derived network tables are cached keyed by network pointer; a caller
// that mutates a network in place between runs must call Reset (or use a
// fresh scratch).
type AsyncScratch struct {
	netTables

	timelines []*clock.Timeline
	rateBufs  [][]float64
	frames    [][]asyncFrame
	byBucket  [][]int32
	bbBase    []int32
	queue     frameQueue
	env       asyncEnv

	// heard is the heard-list snapshot lent to each Deliver call.
	heard []topology.NodeID
}

// NewAsyncScratch returns an empty scratch ready for use.
func NewAsyncScratch() *AsyncScratch {
	return &AsyncScratch{}
}

// Reset invalidates the network-derived caches. Buffer capacity is kept.
func (sc *AsyncScratch) Reset() {
	sc.reset()
}

// clocks sets up a run's per-node clocks: it resets the scratch's pooled
// timelines in place for nodes, hands each random-walk drift a pooled rate
// buffer and returns the timelines with T_s, the latest node start. A drift
// whose memo an earlier run released is rejected, naming its node: its rng
// stream has advanced, so it would draw a different walk.
//
//nd:scratch-owner finishRun releases every adopted buffer at run end
func (sc *AsyncScratch) clocks(nodes []AsyncNode, frameLen float64, slotsPerFrame int) ([]*clock.Timeline, float64, error) {
	if grow := len(nodes) - len(sc.timelines); grow > 0 {
		block := make([]clock.Timeline, grow)
		sc.timelines = slices.Grow(sc.timelines, grow)
		for i := range block {
			sc.timelines = append(sc.timelines, &block[i])
		}
	}
	timelines := sc.timelines[:len(nodes)]
	ts := 0.0
	for u, nc := range nodes {
		if nc.Start > ts {
			ts = nc.Start
		}
		err := timelines[u].Reset(nc.Start, frameLen, slotsPerFrame, nc.Drift)
		if p, ok := nc.Drift.(rateBufPooler); ok && err == nil {
			var buf []float64
			if n := len(sc.rateBufs); n > 0 {
				buf = sc.rateBufs[n-1]
				sc.rateBufs[n-1] = nil
				sc.rateBufs = sc.rateBufs[:n-1]
			}
			err = p.AdoptRateBuf(buf)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("sim: node %d clock: %w", u, err)
		}
	}
	return timelines, ts, nil
}

// frameTables returns the per-node frame tables and frame index (see
// asyncEnv.byBucket), each inner slice empty but keeping the capacity
// earlier runs grew (reserveFrames sizes them to the frames a run
// resolves; RunAsync appends as frames generate).
func (sc *AsyncScratch) frameTables(n int) ([][]asyncFrame, [][]int32, []int32) {
	if cap(sc.frames) < n {
		fr := make([][]asyncFrame, n)
		copy(fr, sc.frames)
		sc.frames = fr
		bb := make([][]int32, n)
		copy(bb, sc.byBucket)
		sc.byBucket = bb
		sc.bbBase = make([]int32, n)
	}
	sc.frames, sc.byBucket = sc.frames[:n], sc.byBucket[:n]
	for u := range sc.frames {
		sc.frames[u] = sc.frames[u][:0]
		sc.byBucket[u] = sc.byBucket[u][:0]
	}
	return sc.frames, sc.byBucket, sc.bbBase[:n]
}

// envFor primes the embedded resolver env for a run on nw, in world (nil
// for a static run), whose clocks are timelines (one per node, already
// built: the transmit buckets start at the earliest node start and last one
// nominal frame). The frame tables, frame index and bucket table start
// empty; frames enter them only through appendFrame. A static run's
// compiled candidate masks come from the network cache; a dynamic run
// compiles each epoch's as it first needs them (epochMasks). The env's internal
// buffers (txBuf, sweepBuf, flagBuf, outBuf, seenBuf) persist across runs
// by design: resolveFrame already reuses them frame-to-frame and
// overwrites before reading.
func (sc *AsyncScratch) envFor(nw *topology.Network, world *dynamics.World, timelines []*clock.Timeline, slotsPerFrame int, loss *LossModel) *asyncEnv {
	n := nw.N()
	env := &sc.env
	env.nw = nw
	sc.load(nw)
	env.world = world
	env.masks = nil
	if world == nil {
		env.masks = &sc.masks
	}
	env.frames, env.byBucket, env.bbBase = sc.frameTables(n)
	env.timelines = timelines
	env.slotsPerFrame = slotsPerFrame
	env.loss = loss
	env.origin, env.frameLen = 0, 1
	if len(timelines) > 0 {
		env.origin, env.frameLen = timelines[0].Start(), timelines[0].FrameLen()
	}
	for _, tl := range timelines {
		env.origin = min(env.origin, tl.Start())
	}
	env.channels = sc.channels
	env.words = (n + 63) / 64
	env.txBuckets = env.txBuckets[:0]
	env.epochIdx, env.epochUsed = env.epochIdx[:0], 0
	env.lastCollected = 0
	return env
}

// reserveFrames pre-sizes, for frames frames per node, every timeline's
// boundary cache, every drift memo, every frame table and every frame
// index, so the lazy caches and appends fill existing capacity instead of
// doubling their way up. Capacity only: no value changes. A run that can
// stop early calls it with 64 frames and again, doubled, each time a node
// reaches the reservation; any other run calls it once with MaxFrames.
func (env *asyncEnv) reserveFrames(nodes []AsyncNode, frames int) {
	slots := frames * env.slotsPerFrame
	for u, tl := range env.timelines {
		tl.Reserve(slots)
		reserveDrift(nodes[u].Drift, slots)
		if fr := env.frames[u]; cap(fr) < frames {
			grown := make([]asyncFrame, len(fr), frames)
			copy(grown, fr)
			env.frames[u] = grown
		}
		// At the paper's drift bound a frame lasts at most 1/(1−δ) = 7/6
		// nominal frames, so k frames start within about 7k/6 buckets.
		if bb := env.byBucket[u]; cap(bb) < frames+frames/6+1 {
			grown := make([]int32, len(bb), frames+frames/6+1)
			copy(grown, bb)
			env.byBucket[u] = grown
		}
	}
}

// frameQueue returns the empty frame queue, with room for n nodes.
func (sc *AsyncScratch) frameQueue(n int) frameQueue {
	sc.queue = slices.Grow(sc.queue[:0], n)
	return sc.queue
}

// slotReserver is implemented by drift processes that can pre-size their
// per-slot memo (clock.RandomWalk). Engines that know the frame budget use
// it to avoid append-doubling churn in the rate memo; reserving never
// changes the rates returned.
type slotReserver interface {
	ReserveSlots(n int)
}

func reserveDrift(d clock.DriftProcess, slots int) {
	if r, ok := d.(slotReserver); ok {
		r.ReserveSlots(slots)
	}
}

// rateBufPooler is implemented by drift processes (clock.RandomWalk) whose
// rate-memo backing array is recycled across runs. Adopting changes capacity
// only, never values, and fails on a process an earlier run released;
// releasing leaves the process consumed.
type rateBufPooler interface {
	AdoptRateBuf(buf []float64) error
	ReleaseRateBuf() []float64
}

// finishRun ends an asynchronous run on the clocks set up by clocks: it
// fills the result — completion and, for a complete run, MinFullFrames
// over the budget frames of every node — and then takes every node
// drift's rate buffer back into the pool. A drift shared between nodes
// releases once (later releases return nil).
func (sc *AsyncScratch) finishRun(nodes []AsyncNode, ts float64, coverage *metrics.Coverage, budget int) *AsyncResult {
	result := &AsyncResult{Ts: ts, Coverage: coverage}
	if coverage.Complete() {
		result.Complete = true
		result.CompletionTime, _ = coverage.CompletionTime()
		result.MinFullFrames = minFullFrames(sc.timelines[:len(nodes)], ts, result.CompletionTime, budget)
	}
	sc.rateBufs = slices.Grow(sc.rateBufs, len(nodes))
	for i := range nodes {
		if p, ok := nodes[i].Drift.(rateBufPooler); ok {
			if buf := p.ReleaseRateBuf(); cap(buf) > 0 {
				sc.rateBufs = append(sc.rateBufs, buf)
			}
		}
	}
	return result
}

// minFullFrames returns the smallest per-node count of full frames lying
// entirely within the real-time interval [from, to] — the "M full frames
// since T_s" of Theorem 9. Only frames within the budget, MaxFrames, count:
// a timeline extends lazily to any index, but no protocol decides a frame
// past the budget. Every counted frame ends by the completion time, so a
// run that stopped at completion resolved it. A node's walk stops once it reaches the running minimum.
func minFullFrames(timelines []*clock.Timeline, from, to float64, budget int) int {
	least := budget
	for _, tl := range timelines {
		count := 0
		for f := tl.FirstFullFrameAfter(from); f < budget && count < least; f++ {
			if _, end := tl.FrameInterval(f); end > to {
				break
			}
			count++
		}
		least = count
	}
	return least
}
