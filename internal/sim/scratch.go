package sim

import (
	"m2hew/internal/channel"
	"m2hew/internal/clock"
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
// availability sets) are cached keyed by network pointer; a caller that
// mutates a network in place between runs must call Reset (or use a fresh
// scratch) so the tables are rebuilt.
type SyncScratch struct {
	nwKey    *topology.Network
	cands    [][]topology.Candidate
	msgAvail []channel.Set
	masks    *topology.CandidateMasks
	// epochMasks is the dynamic runs' candidate-mask table, repacked in
	// place from each changed epoch snapshot (see epochMasksFor); it never
	// aliases masks, the static network's cached table.
	epochMasks *topology.CandidateMasks
	// maskBudget, when positive, replaces syncMaskWordBudget for this
	// scratch's single-tile mask tables — the hook tests shrink to force
	// the scalar fallback on small networks. Set it before the scratch's
	// first run: the static table is cached per network.
	maskBudget int
	// target is the coverage target index (CSR over the discoverable
	// links), shared read-only by every run's Coverage on this network. A
	// network switch allocates a new index and never rewrites the old one,
	// so a Coverage returned earlier stays valid.
	target *metrics.TargetIndex

	// singleTile is the tile scratch of the cached network's single tile
	// (see sync_tiled.go), built at the first run that needs it.
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

// syncMaskWordBudget caps the single tile's packed candidate-mask table at
// 8 MB; larger networks — and dynamic epochs whose table would pass it —
// stay on the scalar resolver (multi-tile halo-local masks are the path to
// large n, not a giant NodeID-space table).
const syncMaskWordBudget = 1 << 20

// NewSyncScratch returns an empty scratch ready for use.
func NewSyncScratch() *SyncScratch {
	return &SyncScratch{}
}

// Reset invalidates the network-derived caches. Buffer capacity is kept.
func (sc *SyncScratch) Reset() {
	sc.nwKey = nil
	sc.cands = nil
	sc.msgAvail = nil
	sc.masks = nil
	sc.target = nil
	sc.singleTile = nil
	sc.tileNW = nil
	sc.tileTL = nil
	sc.tileMasks = nil
	sc.tiles = nil
}

// networkTables returns the network-derived tables — the inbound-candidate
// table, the shared message availability sets, the single tile's
// channel-major candidate masks (nil when over the word budget; the run
// falls back to the scalar resolver) and the discoverable-link coverage target index, copied
// from the candidate table — rebuilding them only when the network changed
// since the last run. A cold build makes a constant number of allocations
// at any network size. hit reports
// whether the cached tables were reused (the engine-internals scratch
// hit/miss counter).
func (sc *SyncScratch) networkTables(nw *topology.Network) (_ [][]topology.Candidate, _ []channel.Set, _ *topology.CandidateMasks, _ *metrics.TargetIndex, hit bool) {
	hit = sc.nwKey == nw
	if !hit {
		sc.nwKey = nw
		sc.cands = nw.InboundCandidates()
		sc.msgAvail = sharedMsgAvail(nw)
		channels := 0
		if id, ok := nw.Universe().Max(); ok {
			channels = int(id) + 1
		}
		sc.masks = topology.NewCandidateMasks(sc.cands, channels, sc.maskWords())
		sc.target = metrics.NewTargetIndexFromCandidates(sc.cands)
		sc.singleTile = nil
	}
	return sc.cands, sc.msgAvail, sc.masks, sc.target, hit
}

// maskWords returns the single tile's candidate-mask word budget.
func (sc *SyncScratch) maskWords() int {
	if sc.maskBudget > 0 {
		return sc.maskBudget
	}
	return syncMaskWordBudget
}

// epochMasksFor repacks a dynamic run's epoch candidate table into the
// scratch-owned epoch mask table, reusing its storage across epochs and
// runs, and returns it — or nil when the table is over budget, sending the
// epoch's slots to the scalar resolver.
func (sc *SyncScratch) epochMasksFor(cands [][]topology.Candidate, channels int) *topology.CandidateMasks {
	if sc.epochMasks == nil {
		sc.epochMasks = new(topology.CandidateMasks)
	}
	if !sc.epochMasks.Rebuild(cands, channels, sc.maskWords()) {
		return nil
	}
	return sc.epochMasks
}

// syncTileMaskWordBudget returns the multi-tile packed-mask budget: the
// single tile's budget, scaled linearly past it — a listener's halo-local
// row spans at most its 3×3 halo (a constant for radius-matched tilings),
// so the packed table is O(n) by construction and a linear budget admits
// every well-tiled network while still refusing a pathological blowup.
func syncTileMaskWordBudget(n int) int {
	if scaled := 128 * n; scaled > syncMaskWordBudget {
		return scaled
	}
	return syncMaskWordBudget
}

// singleTileState returns the tile scratch of the cached network's single
// tile — a 1×1 tiling, whose local indexes are NodeIDs — building it at
// first use per network and re-zeroing the per-run state either way.
func (sc *SyncScratch) singleTileState(channels int) []tileState {
	if sc.singleTile == nil {
		tl, _ := topology.NewTiling(sc.nwKey, 1, 1) // cannot fail: the network is set and the grid positive
		sc.singleTile = buildTileStates(tl, channels)
	}
	resetTileStates(sc.singleTile)
	return sc.singleTile
}

// tileState returns the multi-tile halo-local candidate masks and
// per-tile scratch for the (network, tiling) pair, rebuilding on a key
// change and re-zeroing the per-run state either way. A nil mask table
// (halo violation — the tiling is finer than the network's reach — or
// budget overrun, or no channels) disables the multi-tile path for the
// run; the caller falls back to the single tile.
func (sc *SyncScratch) tileState(nw *topology.Network, tl *topology.Tiling, cands [][]topology.Candidate, channels int) (*topology.CandidateMasks, []tileState) {
	if sc.tileNW != nw || sc.tileTL != tl {
		sc.tileNW, sc.tileTL = nw, tl
		sc.tileMasks = topology.NewTileMasks(tl, cands, channels, syncTileMaskWordBudget(tl.N()))
		sc.tiles = nil
		if sc.tileMasks != nil {
			sc.tiles = buildTileStates(tl, channels)
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

// heardReporters returns the per-run heard-reporter cache, grown to n;
// the run's setup overwrites every entry.
func (sc *SyncScratch) heardReporters(n int) []HeardReporter {
	if cap(sc.hrs) < n {
		sc.hrs = make([]HeardReporter, n)
	}
	return sc.hrs[:n]
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
// reuse across runs: the frame tables, the transmit bucket table, the
// reception resolver's buffers, the delivery list, and (opt-in) the clock
// timelines.
// A scratch belongs to one goroutine at a time; runs borrow it for their
// whole duration. The zero value is not ready — use NewAsyncScratch.
//
// Reuse is invisible in results: frame tables are fully overwritten (or
// re-sliced empty) before resolution reads them, resolver buffers already
// carried per-frame reuse semantics within a run, and no scratch state feeds
// an rng draw. The derived network tables are cached keyed by network
// pointer; a caller that mutates a network in place between runs must call
// Reset (or use a fresh scratch).
type AsyncScratch struct {
	// RecycleTimelines additionally pools the per-node clock.Timeline
	// objects, resetting them in place each run instead of allocating fresh
	// ones. Timelines escape the engine through AsyncResult.Timelines, so
	// this is safe only when the caller does not use a result's Timelines
	// (FullFrames, MinFullFrames, drift audits) after starting the next run
	// with the same scratch. Paths that audit timelines after a whole batch
	// (e.g. harness.AsyncConfigs consumers) must leave this off.
	RecycleTimelines bool

	nwKey    *topology.Network
	cands    [][]topology.Candidate
	msgAvail []channel.Set
	target   *metrics.TargetIndex // shared read-only, as in SyncScratch
	channels int                  // max channel ID of the network, plus one

	timelines  []*clock.Timeline
	rateBufs   [][]float64
	frames     [][]asyncFrame
	deliveries []delivery
	env        asyncEnv

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
	sc.nwKey = nil
	sc.cands = nil
	sc.msgAvail = nil
	sc.target = nil
}

// networkTables mirrors SyncScratch.networkTables.
func (sc *AsyncScratch) networkTables(nw *topology.Network) ([][]topology.Candidate, []channel.Set, *metrics.TargetIndex) {
	if sc.nwKey != nw {
		sc.nwKey = nw
		sc.cands = nw.InboundCandidates()
		sc.msgAvail = sharedMsgAvail(nw)
		sc.target = metrics.NewTargetIndexFromCandidates(sc.cands)
		sc.channels = 0
		if id, ok := nw.Universe().Max(); ok {
			sc.channels = int(id) + 1
		}
	}
	return sc.cands, sc.msgAvail, sc.target
}

// timelineFor returns the timeline for node u initialized with the given
// parameters. With RecycleTimelines it resets a pooled timeline in place;
// otherwise it allocates fresh (the object escapes through the result).
func (sc *AsyncScratch) timelineFor(u int, start, frameLen float64, slotsPerFrame int, drift clock.DriftProcess) (*clock.Timeline, error) {
	if !sc.RecycleTimelines {
		return clock.NewTimeline(start, frameLen, slotsPerFrame, drift)
	}
	for len(sc.timelines) <= u {
		sc.timelines = append(sc.timelines, nil)
	}
	if tl := sc.timelines[u]; tl != nil {
		if err := tl.Reset(start, frameLen, slotsPerFrame, drift); err != nil {
			return nil, err
		}
		return tl, nil
	}
	tl, err := clock.NewTimeline(start, frameLen, slotsPerFrame, drift)
	if err != nil {
		return nil, err
	}
	sc.timelines[u] = tl
	return tl, nil
}

// timelineSlice returns the n-length timeline slice handed to the result.
// With RecycleTimelines the slice itself is pooled too; otherwise it is
// fresh, since AsyncResult.Timelines escapes.
func (sc *AsyncScratch) timelineSlice(n int) []*clock.Timeline {
	if !sc.RecycleTimelines {
		return make([]*clock.Timeline, n)
	}
	for len(sc.timelines) < n {
		sc.timelines = append(sc.timelines, nil)
	}
	return sc.timelines[:n]
}

// frameTables returns the per-node frame tables, each inner slice empty
// but keeping the capacity earlier runs grew (reserveFrames sizes them to
// the frames a run resolves; both engines append as frames generate).
func (sc *AsyncScratch) frameTables(n int) [][]asyncFrame {
	if cap(sc.frames) < n {
		fr := make([][]asyncFrame, n)
		copy(fr, sc.frames)
		sc.frames = fr
	}
	sc.frames = sc.frames[:n]
	for u := range sc.frames {
		sc.frames[u] = sc.frames[u][:0]
	}
	return sc.frames
}

// envFor primes the embedded resolver env for a run on nw whose clocks are
// timelines (one per node, already built: the transmit buckets start at the
// earliest node start and last one nominal frame). The frame tables and the
// bucket table start empty; frames enter them only through appendFrame.
// The env's internal buffers (txBuf, sweepBuf, flagBuf, outBuf, seenBuf)
// persist across runs by design: resolveFrame already reuses them
// frame-to-frame and overwrites before reading. The frame-search cursors
// persist too, grown to n: a stale cursor is only a search hint (see
// seekFrame).
func (sc *AsyncScratch) envFor(nw *topology.Network, timelines []*clock.Timeline, slotsPerFrame int, loss *LossModel) *asyncEnv {
	n := nw.N()
	env := &sc.env
	env.nw = nw
	env.cands, _, _ = sc.networkTables(nw)
	env.frames = sc.frameTables(n)
	env.timelines = timelines
	env.slotsPerFrame = slotsPerFrame
	env.loss = loss
	if len(env.cursor) < n {
		env.cursor = make([]int32, n)
	}
	env.origin, env.perBucket = 0, 1
	if len(timelines) > 0 {
		env.origin, env.perBucket = timelines[0].Start(), 1/timelines[0].FrameLen()
	}
	for _, tl := range timelines {
		env.origin = min(env.origin, tl.Start())
	}
	env.channels = sc.channels
	env.words = (n + 63) / 64
	env.txBuckets = env.txBuckets[:0]
	env.world = nil // engines running on a dynamic world set it after
	env.lastCollected = 0
	return env
}

// reserveFrames pre-sizes, for frames frames per node, every timeline's
// boundary cache, every drift memo and every frame table, so the lazy
// caches and appends fill existing capacity instead of doubling their way
// up. Capacity only: no value changes, and a table may still grow past it
// (the look-ahead generates senders out to a listening frame's end).
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
	}
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
// rate-memo backing array can be recycled across trials. Adopting changes
// capacity only, never values; releasing leaves the process unqueryable, so
// the pool operates only under the RecycleTimelines contract (the caller
// never touches a prior run's drifts once the next run starts).
type rateBufPooler interface {
	AdoptRateBuf(buf []float64)
	ReleaseRateBuf() []float64
}

// adoptRateBuf seeds a fresh trial's drift with a pooled backing array.
//
//nd:scratch-owner reclaimRateBufs releases every adopted buffer at run end
func (sc *AsyncScratch) adoptRateBuf(d clock.DriftProcess) {
	p, ok := d.(rateBufPooler)
	if !ok {
		return
	}
	if n := len(sc.rateBufs); n > 0 {
		buf := sc.rateBufs[n-1]
		sc.rateBufs[n-1] = nil
		sc.rateBufs = sc.rateBufs[:n-1]
		p.AdoptRateBuf(buf)
	}
}

// reclaimRateBufs takes every node drift's rate buffer back into the pool
// at the end of a run. A drift shared between nodes releases once (later
// releases return nil); nil or tiny buffers are dropped.
func (sc *AsyncScratch) reclaimRateBufs(nodes []AsyncNode) {
	for i := range nodes {
		p, ok := nodes[i].Drift.(rateBufPooler)
		if !ok {
			continue
		}
		if buf := p.ReleaseRateBuf(); cap(buf) > 0 {
			sc.rateBufs = append(sc.rateBufs, buf)
		}
	}
}
