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
// (the per-channel transmitter index), and no scratch state feeds an rng
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
	// scratch's mask tables — the hook tests shrink to force the scalar
	// fallback on small networks. Set it before the scratch's first run:
	// the static table is cached per network.
	maskBudget int
	// target is the coverage target index (CSR over the discoverable
	// links), shared read-only by every run's Coverage on this network. A
	// network switch allocates a new index and never rewrites the old one,
	// so a Coverage returned earlier stays valid.
	target *metrics.TargetIndex

	// Tiled-resolver state (see sync_tiled.go), cached keyed by (network,
	// tiling) pair: the halo-local candidate masks and the per-tile scratch.
	tileNW    *topology.Network
	tileTL    *topology.Tiling
	tileMasks *topology.TileMasks
	tiles     []tileState

	actions   []radio.Action
	txOn      []int
	txTouched []channel.ID
	locals    []int

	// Word-kernel state (see sync_resolve.go): per-slot transmitter word
	// masks (channel-major, wordsPer words per channel), single-word
	// availability masks, the slot's listener list, and the per-run
	// heard-reporter cache and heard-list snapshot.
	txWords []uint64
	avail1  []uint64
	rxList  []topology.NodeID
	rxChs   []channel.ID
	hrs     []HeardReporter
	heard   []topology.NodeID
}

// syncMaskWordBudget caps the packed candidate-mask table at 8 MB; larger
// networks — and dynamic epochs whose table would pass it — stay on the
// scalar resolver (the tiled layout is the path to large n, not a giant
// flat table).
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
	sc.tileNW = nil
	sc.tileTL = nil
	sc.tileMasks = nil
	sc.tiles = nil
}

// networkTables returns the network-derived tables — the inbound-candidate
// table, the shared message availability sets, the channel-major candidate
// masks (nil when over the word budget; the run falls back to the scalar
// resolver) and the discoverable-link coverage target index, transposed
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
	}
	return sc.cands, sc.msgAvail, sc.masks, sc.target, hit
}

// maskWords returns the flat candidate-mask table's word budget.
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

// syncTileMaskWordBudget returns the tiled resolver's packed-mask budget:
// the flat-table budget, scaled linearly past it — a listener's halo-local
// row spans at most its 3×3 halo (a constant for radius-matched tilings),
// so the packed table is O(n) by construction and a linear budget admits
// every well-tiled network while still refusing a pathological blowup.
func syncTileMaskWordBudget(n int) int {
	if scaled := 128 * n; scaled > syncMaskWordBudget {
		return scaled
	}
	return syncMaskWordBudget
}

// tileState returns the tiled resolver's halo-local candidate masks and
// per-tile scratch for the (network, tiling) pair, rebuilding on a key
// change and re-zeroing the per-run state either way. A nil mask table
// (halo violation — the tiling is finer than the network's reach — or
// budget overrun, or no channels) disables the tiled path for the run; the
// caller falls back to the single-threaded resolvers.
func (sc *SyncScratch) tileState(nw *topology.Network, tl *topology.Tiling, cands [][]topology.Candidate, channels int) (*topology.TileMasks, []tileState) {
	if sc.tileNW != nw || sc.tileTL != tl {
		sc.tileNW, sc.tileTL = nw, tl
		sc.tileMasks = nil
		sc.tiles = nil
		if channels > 0 {
			sc.tileMasks = topology.NewTileMasks(tl, cands, channels, syncTileMaskWordBudget(tl.N()))
		}
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

// actionBuf returns the per-node action buffer, grown to n. Entries are
// fully overwritten each slot before being read.
func (sc *SyncScratch) actionBuf(n int) []radio.Action {
	if cap(sc.actions) < n {
		sc.actions = make([]radio.Action, n)
	}
	return sc.actions[:n]
}

// txIndex returns the per-channel transmitter-count index sized for channel
// IDs up to maxID, zeroed: an errored previous run may have returned
// mid-slot with live counts still in place.
func (sc *SyncScratch) txIndex(maxID channel.ID) ([]int, []channel.ID) {
	need := int(maxID) + 1
	if cap(sc.txOn) < need {
		sc.txOn = make([]int, need)
	}
	txOn := sc.txOn[:need]
	for i := range txOn {
		txOn[i] = 0
	}
	if sc.txTouched == nil {
		sc.txTouched = make([]channel.ID, 0, 16)
	}
	return txOn, sc.txTouched[:0]
}

// availBuf returns the per-node single-word availability mask buffer,
// reusing scratch capacity; the caller refills the contents every run.
func (sc *SyncScratch) availBuf(n int) []uint64 {
	if cap(sc.avail1) < n {
		sc.avail1 = make([]uint64, n)
	}
	return sc.avail1[:n]
}

// txWordsBuf returns the per-slot channel-major transmitter masks (channels
// × wordsPer words), zeroed: an errored previous run may have returned
// mid-slot with live bits still set.
func (sc *SyncScratch) txWordsBuf(words int) []uint64 {
	if cap(sc.txWords) < words {
		sc.txWords = make([]uint64, words)
	}
	txw := sc.txWords[:words]
	for i := range txw {
		txw[i] = 0
	}
	return txw
}

// rxListBufs returns the kernel path's flat per-slot listener list and its
// parallel channel list, re-sliced empty, each with capacity for every
// node so per-slot appends never grow them.
func (sc *SyncScratch) rxListBufs(n int) ([]topology.NodeID, []channel.ID) {
	if cap(sc.rxList) < n {
		sc.rxList = make([]topology.NodeID, 0, n)
		sc.rxChs = make([]channel.ID, 0, n)
	}
	return sc.rxList[:0], sc.rxChs[:0]
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
// reuse across runs: the phase-1 frame/start tables, the reception
// resolver's buffers, the delivery list, and (opt-in) the clock timelines.
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
// with capacity for maxFrames entries (both engines append as frames
// generate).
func (sc *AsyncScratch) frameTables(n, maxFrames int) [][]asyncFrame {
	if cap(sc.frames) < n {
		fr := make([][]asyncFrame, n)
		copy(fr, sc.frames)
		sc.frames = fr
	}
	sc.frames = sc.frames[:n]
	for u := 0; u < n; u++ {
		if cap(sc.frames[u]) < maxFrames {
			sc.frames[u] = make([]asyncFrame, maxFrames)
		}
		sc.frames[u] = sc.frames[u][:0]
	}
	return sc.frames
}

// envFor primes the embedded resolver env for a run. The env's internal
// buffers (txBuf, sweepBuf, flagBuf, outBuf, seenBuf) persist across runs by
// design: resolveFrame already reuses them frame-to-frame and overwrites
// before reading. The frame-search cursors persist too, grown to n: a stale
// cursor is only a search hint (see seekFrame).
func (sc *AsyncScratch) envFor(nw *topology.Network, cands [][]topology.Candidate, frames [][]asyncFrame, timelines []*clock.Timeline, slotsPerFrame int, loss *LossModel) *asyncEnv {
	env := &sc.env
	env.nw = nw
	env.cands = cands
	env.frames = frames
	env.timelines = timelines
	env.slotsPerFrame = slotsPerFrame
	env.loss = loss
	if len(env.cursor) < nw.N() {
		env.cursor = make([]int32, nw.N())
	}
	env.world = nil // engines running on a dynamic world set it after
	env.lastCollected = 0
	return env
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
