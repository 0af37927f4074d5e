package sim

import (
	"fmt"
	"math"
	"slices"

	"m2hew/internal/channel"
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
// before it is read (actions, candidate tables) or re-zeroed on acquisition
// (the tiles' transmitter masks and counts), and no scratch state feeds an rng
// draw. The derived network tables (inbound candidates, shared message
// availability sets, candidate masks) are cached keyed by network pointer; a
// caller that mutates a network in place between runs must call Reset (or
// use a fresh scratch) so the tables are rebuilt.
type SyncScratch struct {
	netTables
	// epochMasks is the dynamic runs' candidate masks, recompiled in place
	// from each changed epoch snapshot; it never aliases the network's
	// cached masks.
	epochMasks candMasks

	// singleTile is the single tile's scratch (see sync_tiled.go), built at
	// the first run that needs it and rebuilt only when a run's node or
	// channel count outgrows it.
	singleTile []tileState

	// Multi-tile state, cached keyed by (network, tiling) pair: the
	// halo-local candidate masks and the per-tile scratch.
	tileNW    *topology.Network
	tileTL    *topology.Tiling
	tileMasks *topology.CandidateMasks
	tiles     []tileState
	// The multi-tile rounds' NodeID-order state: the decide and deliver
	// chunks and the NodeID-indexed sender slots (see nodeChunks).
	chunks  []nodeChunk
	senders []int32

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
	sc.tileNW = nil
	sc.tileTL = nil
	sc.tileMasks = nil
	sc.tiles = nil
}

// syncTileMaskWordBudget returns the multi-tile packed-mask budget: 128
// words per node, and at least 8 MB — a listener's halo-local row spans
// at most its 3×3 halo (a constant for radius-matched tilings), so the
// packed table is O(n) by construction and a linear budget admits every
// well-tiled network while still refusing a pathological blowup, which
// then runs on the single tile.
func syncTileMaskWordBudget(n int) int {
	return max(128*n, 1<<20)
}

// singleTileState returns the single tile's scratch — one tile holding
// every node, whose local indexes and mask bits are NodeIDs — sized for n
// nodes and channels channels, and re-zeroes its per-run state.
func (sc *SyncScratch) singleTileState(n, channels int) []tileState {
	words := (n + 63) / 64
	if len(sc.singleTile) == 0 || sc.singleTile[0].words != words || len(sc.singleTile[0].txOn) != channels || cap(sc.singleTile[0].rxL) < n {
		sc.singleTile = []tileState{{
			words:     words,
			localTx:   make([]uint64, channels*words),
			txOn:      make([]int32, channels),
			txTouched: make([]channel.ID, 0, 8),
			rxL:       make([]int32, 0, n),
			rxC:       make([]channel.ID, 0, n),
		}}
	}
	resetTileStates(sc.singleTile)
	return sc.singleTile
}

// tileState returns the multi-tile halo-local candidate masks and
// per-tile scratch for the loaded network and tiling tl, rebuilding on a key
// change and re-zeroing the per-run state either way. A nil mask table
// (halo violation — the tiling is finer than the network's reach — or
// budget overrun, or no channels) disables the multi-tile path for the
// run; the caller falls back to the single tile.
func (sc *SyncScratch) tileState(tl *topology.Tiling) (*topology.CandidateMasks, []tileState) {
	if sc.tileNW != sc.nwKey || sc.tileTL != tl {
		sc.tileNW, sc.tileTL = sc.nwKey, tl
		sc.tileMasks = topology.NewTileMasks(tl, sc.cands, sc.channels, syncTileMaskWordBudget(tl.N()))
		sc.tiles = nil
		if sc.tileMasks != nil {
			sc.tiles = buildTileStates(tl, sc.channels)
		}
	}
	if sc.tileMasks == nil {
		return nil, nil
	}
	resetTileStates(sc.tiles)
	return sc.tileMasks, sc.tiles
}

// nodeChunks returns a multi-tile run's count NodeID chunks over n nodes
// and its n sender slots, reusing scratch capacity (the chunks keep their
// heard-list buffers) and resetting both either way (resetNodeChunks).
func (sc *SyncScratch) nodeChunks(n, count int) ([]nodeChunk, []int32) {
	if cap(sc.chunks) < count {
		sc.chunks = make([]nodeChunk, count)
	}
	if cap(sc.senders) < n {
		sc.senders = make([]int32, n)
	}
	chunks, senders := sc.chunks[:count], sc.senders[:n]
	resetNodeChunks(chunks, senders)
	return chunks, senders
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

// AsyncScratch holds the per-run state of RunAsync and RunAsyncOnline for
// reuse across runs: the clock timelines and pooled random-walk rate memos,
// the frame tables and frame index, the transmit bucket table, the compiled
// candidate masks (per network, and per epoch of a dynamic run), the
// reception resolver's buffers and the delivery list.
// A scratch belongs to one goroutine at a time; runs borrow it for their
// whole duration. The zero value is not ready — use NewAsyncScratch.
//
// Reuse is invisible in results: timelines are reset in place, frame tables
// are fully overwritten (or re-sliced empty) before resolution reads them,
// resolver buffers already carried per-frame reuse semantics within a run,
// and no scratch state feeds an rng draw. The derived network tables are
// cached keyed by network pointer; a caller that mutates a network in place
// between runs must call Reset (or use a fresh scratch).
type AsyncScratch struct {
	netTables

	timelines  []*clock.Timeline
	rateBufs   [][]float64
	frames     [][]asyncFrame
	byBucket   [][]int32
	bbBase     []int32
	deliveries []delivery
	env        asyncEnv

	// Per-listener look-ahead horizons of a RunAsync run.
	ahead []aheadMark

	// Online-engine per-run buffers.
	nextEnd []float64
	pending []int

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
// resolves; both engines append as frames generate).
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
	env.cands = sc.cands
	env.world = world
	env.masks = nil
	if world == nil {
		env.masks = sc.candRows()
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
// doubling their way up. Capacity only: no value changes, and a table may
// still grow past it (the look-ahead generates senders out to a listening
// frame's end).
// Windowed RunAsync runs call it once per window with the window's end;
// one-pass runs call it once with MaxFrames.
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

// aheadMark is what RunAsync knows after one listener's last look-ahead:
// every sender in the listener's candidate row of epoch epoch has frames
// out to to, or has used its budget.
type aheadMark struct {
	to    float64
	epoch int
}

// aheadMarks returns the per-listener look-ahead marks, grown to n and
// reset to "none yet" (every frame ends past −Inf).
func (sc *AsyncScratch) aheadMarks(n int) []aheadMark {
	sc.ahead = resize(sc.ahead, n)
	for u := range sc.ahead {
		sc.ahead[u] = aheadMark{to: math.Inf(-1)}
	}
	return sc.ahead
}

// deliveryBuf returns the empty delivery accumulator.
func (sc *AsyncScratch) deliveryBuf() []delivery {
	return sc.deliveries[:0]
}

// onlineBufs returns the online engine's frame-end / pending-index buffers,
// grown to n. nextEnd is fully initialized by the engine's priming loop;
// pending is zeroed here because the engine relies on all-zero initial
// indexes.
func (sc *AsyncScratch) onlineBufs(n int) ([]float64, []int) {
	if cap(sc.nextEnd) < n {
		sc.nextEnd = make([]float64, n)
		sc.pending = make([]int, n)
	}
	pending := sc.pending[:n]
	for i := range pending {
		pending[i] = 0
	}
	return sc.nextEnd[:n], pending
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
// over the budget frames every node resolved — and then takes every node
// drift's rate buffer back into the pool. A drift shared between nodes
// releases once (later releases return nil).
func (sc *AsyncScratch) finishRun(nodes []AsyncNode, ts float64, coverage *metrics.Coverage, budget int) *AsyncResult {
	result := &AsyncResult{Ts: ts, Coverage: coverage, FrameBudget: budget}
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
// since T_s" of Theorem 9. Only the budget frames the run resolved count: a
// timeline extends lazily to any index, but no protocol decided a frame
// past the budget. A node's walk stops once it reaches the running minimum.
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
