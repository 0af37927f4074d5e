package sim

import (
	"m2hew/internal/channel"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// This file is the synchronous engine's one slot pipeline. A run's nodes
// are partitioned into tiles (topology.Tiling); a slot steps every node's
// protocol, scatters the decisions into tile-local per-channel transmitter
// word masks, resolves each listener by intersecting its candidate row
// (topology.CandidateMasks) against its channel's halo transmitter mask,
// and delivers each unique survivor to the listener's protocol.
//
// Most runs use a single tile holding every node (see syncRun). Its halo
// is the tile itself, and a slot runs inline on the caller as two phases:
//
//	phase A  clear the tile's per-slot state, step every node's protocol
//	         in ascending NodeID order, validate, and scatter transmitters
//	         into the per-channel masks and listeners into the listener
//	         list;
//	phase B  resolve each listener, in ascending NodeID order, and deliver
//	         inline.
//
// A multi-tile run (cfg.Tiling, cell side ≥ radius) runs a slot as four
// fork-join rounds on a tilepool, each pool join a barrier. Per-node
// protocol state — protocols, their rng streams and neighbor tables — was
// allocated in NodeID order, so the rounds that call into it sweep
// contiguous NodeID chunks in memory order; only the word-mask work runs
// per tile:
//
//	decide   per NodeID chunk: step each node (start slots honoured),
//	         validate, and store actions[u];
//	scatter  per tile: read the tile's actions into its local transmitter
//	         masks and listener list;
//	resolve  per tile: assemble each listening channel's halo mask by
//	         word-copying the 3×3 neighbor tiles' segments, resolve the
//	         tile's listeners, and record each single-survivor listener's
//	         sender in the NodeID-indexed sender slots;
//	deliver  per NodeID chunk: for each node with a sender, build the
//	         message, snapshot the sender's heard-list and call Deliver.
//
// The caller then applies coverage from the sender slots in ascending
// NodeID order, clearing each slot: the listener-major target index's rows
// are read in memory order.
//
// Byte-identity of a multi-tile run with the single tile at matched seed
// rests on the multi-tile gate (static world, loss-free, no per-listener
// observer subscription):
//
//   - decisions: every protocol draws from its own per-node rng stream and
//     touches only its own state, and each node keeps its call order —
//     Step(s), then its slot-s Deliver if any, then Step(s+1) — because the
//     decide and deliver rounds are separated by barriers exactly as the
//     single tile's phases are. Which worker sweeps which NodeID chunk is
//     invisible, so even adaptive (non-oblivious) protocols see the
//     identical interleaving of Step and Deliver calls;
//   - resolution: each listener is resolved by exactly one tile (its own),
//     against a halo mask that the barrier guarantees is the slot's
//     complete transmitter picture within radio reach (NewTileMasks proved
//     structurally that no candidate lies outside the halo), through the
//     same OverlapResolve kernel;
//   - effects: with no loss model there are no shared-rng draws to order,
//     with no per-listener events there is no event order to preserve, a
//     listener receives at most one delivery per slot, and half duplex
//     means no sender's state (HeardReporter snapshots included) can
//     change within a slot, even while other chunks deliver — so the
//     within-slot delivery order is invisible, and the shared residue
//     (coverage bookkeeping) is applied sequentially after the deliver
//     round;
//   - errors: each NodeID chunk validates its nodes in ascending order and
//     stops at its first failure; the engine reports the minimum failing
//     node across chunks, which is the first failure an ascending scan
//     would have hit (validity is a per-node property), with the identical
//     message;
//   - internals: decision rounds are still tallied per (slot, tile with
//     stepped nodes), in the scatter round, so StepperBatches and its
//     means do not depend on the chunking.

// tileState is one tile's scratch: the scatter buffers, the halo assembly,
// and the tile's internals tallies. Workers touch only their own tile's
// state during a round (resolve additionally READS neighbor tiles' scatter
// outputs, sequenced by the pool barrier), so no two goroutines ever write
// the same state.
type tileState struct {
	nodes     []topology.NodeID // the tile's nodes, ascending (shared storage)
	words     int               // word width of the tile's own segment
	haloWords int               // word width of the tile's halo space
	// ownHalo marks a tile whose halo is only itself (a single tile): its
	// halo bits are its local indexes, and phase B reads localTx directly.
	ownHalo bool

	localTx   []uint64 // channel-major transmitter masks, channels × words
	txOn      []int32  // per-channel transmitter count in this tile
	txTouched []channel.ID

	rxU []topology.NodeID
	rxC []channel.ID

	halo      []uint64 // channel-major halo masks, channels × haloWords
	haloStamp []int    // per channel: slot of last assembly (-1 = never)
	haloLive  []bool   // per channel: any transmitter present at last assembly

	heard []topology.NodeID // the single tile's heard-list snapshot, lent to each Deliver

	err     error
	errNode topology.NodeID

	// Internals tallies, accumulated in-worker (gated on tallyInternals)
	// and summed deterministically at run end.
	batches, batchNodes, maxBatch int64
	haloEx, haloWordsCopied       int64
}

// nodeChunk is one contiguous NodeID range [lo, hi) of a multi-tile run's
// decide and deliver rounds, with the round's error and the heard-list
// snapshot lent to each Deliver. A worker touches only its own chunk.
type nodeChunk struct {
	lo, hi  topology.NodeID
	err     error
	errNode topology.NodeID
	heard   []topology.NodeID
}

// noSender marks a node with no delivery pending in the multi-tile
// sender slots.
const noSender = -1

// minChunkNodes is the smallest NodeID chunk worth a pool round's steal.
const minChunkNodes = 256

// chunkCount returns how many NodeID chunks a multi-tile run of n nodes on
// the given worker count sweeps: four per worker, so the pool's cursor can
// balance uneven protocol costs, but none smaller than minChunkNodes.
func chunkCount(n, workers int) int {
	return max(1, min(4*workers, n/minChunkNodes))
}

// buildTileStates sizes one tileState per tile for the given tiling and
// channel count.
func buildTileStates(tl *topology.Tiling, channels int) []tileState {
	tiles := make([]tileState, tl.Tiles())
	for t := range tiles {
		ts := &tiles[t]
		ts.nodes = tl.TileNodes(t)
		ts.words = tl.TileWords(t)
		ts.haloWords = tl.HaloWords(t)
		ts.ownHalo = len(tl.HaloTiles(t)) == 1
		n := len(ts.nodes)
		ts.localTx = make([]uint64, channels*ts.words)
		ts.txOn = make([]int32, channels)
		ts.txTouched = make([]channel.ID, 0, 8)
		ts.rxU = make([]topology.NodeID, 0, n)
		ts.rxC = make([]channel.ID, 0, n)
		if !ts.ownHalo {
			ts.halo = make([]uint64, channels*ts.haloWords)
			ts.haloStamp = make([]int, channels)
			ts.haloLive = make([]bool, channels)
		}
	}
	return tiles
}

// resetTileStates re-zeroes the per-run state: an errored previous run may
// have returned mid-slot with live bits, counts and queues in place.
func resetTileStates(tiles []tileState) {
	for t := range tiles {
		ts := &tiles[t]
		clear(ts.localTx)
		clear(ts.txOn)
		ts.txTouched = ts.txTouched[:0]
		ts.rxU, ts.rxC = ts.rxU[:0], ts.rxC[:0]
		for i := range ts.haloStamp {
			ts.haloStamp[i] = -1
			ts.haloLive[i] = false
		}
		ts.err = nil
		ts.errNode = 0
		ts.batches, ts.batchNodes, ts.maxBatch = 0, 0, 0
		ts.haloEx, ts.haloWordsCopied = 0, 0
	}
}

// resetNodeChunks splits [0, n) into len(chunks) contiguous ranges and
// clears every chunk's error, and marks every sender slot empty: an errored
// previous run may have returned with either in place.
func resetNodeChunks(chunks []nodeChunk, senders []int32) {
	n := len(senders)
	for i := range chunks {
		ch := &chunks[i]
		ch.lo = topology.NodeID(i * n / len(chunks))
		ch.hi = topology.NodeID((i + 1) * n / len(chunks))
		ch.err, ch.errNode = nil, 0
	}
	for i := range senders {
		senders[i] = noSender
	}
}

// runSlot executes one slot. On the single tile: phase A, the error check,
// the slot event, and phase B (or the scalar scan), all inline. On a
// multi-tile run: the decide round, the error sweep, the slot event, the
// scatter, resolve and deliver rounds, and the sequential coverage apply
// from the sender slots.
//
//nd:hotpath
func (r *syncRun) runSlot(slot int) error {
	r.slot = slot
	r.ev.Time, r.ev.Slot = float64(slot), slot
	if r.pool == nil {
		r.tileSlotA()
		if ts := &r.tiles[0]; ts.err != nil {
			return ts.err
		}
	} else {
		r.pool.Run(len(r.chunks), r.fnDecide)
		// Error sweep: the minimum failing node across chunks is the
		// failure an ascending scan would have reported first.
		var firstErr error
		firstNode := topology.NodeID(-1)
		for i := range r.chunks {
			ch := &r.chunks[i]
			if ch.err != nil && (firstNode < 0 || ch.errNode < firstNode) {
				firstErr, firstNode = ch.err, ch.errNode
			}
		}
		if firstErr != nil {
			return firstErr
		}
	}

	if r.wantSlot {
		r.obs.OnEvent(Event{
			Kind: EventSlot, Time: float64(slot), Slot: slot,
			Actions: r.actions,
		})
	}

	switch {
	case r.pool != nil:
		r.pool.Run(len(r.tiles), r.fnScatter)
		r.pool.Run(len(r.tiles), r.fnResolve)
		r.pool.Run(len(r.chunks), r.fnDeliver)
		// Sequential apply: the coverage oracle is shared, so the caller
		// walks the sender slots in listener order, as the single tile
		// observes, and clears each.
		for u, s := range r.senders {
			if s != noSender {
				r.senders[u] = noSender
				r.coverage.Observe(topology.Link{From: topology.NodeID(s), To: topology.NodeID(u)}, float64(slot))
			}
		}
	case r.masks == nil:
		r.resolveScalar(&r.tiles[0])
		r.internals.ScalarSlots++
	default:
		r.tileSlotB(0)
	}
	return nil
}

// beginSlot clears the tile's previous slot: transmitter masks and counts,
// and listeners.
//
//nd:hotpath
func (ts *tileState) beginSlot() {
	for _, c := range ts.txTouched {
		ts.txOn[c] = 0
		clear(ts.localTx[int(c)*ts.words : (int(c)+1)*ts.words])
	}
	ts.txTouched = ts.txTouched[:0]
	ts.rxU, ts.rxC = ts.rxU[:0], ts.rxC[:0]
}

// tallyRound counts one decision round of stepped nodes on the tile.
//
//nd:hotpath
func (ts *tileState) tallyRound(stepped int) {
	ts.batches++
	ts.batchNodes += int64(stepped)
	ts.maxBatch = max(ts.maxBatch, int64(stepped))
}

// tileSlotA is the single tile's phase A: clear the tile's previous slot,
// step its active nodes' protocols in ascending NodeID order, validate,
// and scatter.
//
//nd:hotpath
func (r *syncRun) tileSlotA() {
	ts := &r.tiles[0]
	slot := r.slot
	ts.beginSlot()
	ts.err = nil

	stepped := 0
	active, locals, startSlots, actions, protos := r.active, r.locals, r.startSlots, r.actions, r.protos
	txOn, localTx, words := ts.txOn, ts.localTx, ts.words
	// A node's position in the tile is its local index.
	for li, u := range ts.nodes {
		local := slot
		switch {
		case active != nil:
			if !active[u] {
				actions[u] = radio.Action{Mode: radio.Quiet}
				continue
			}
			local = locals[u]
			locals[u]++
		case startSlots != nil:
			if slot < startSlots[u] {
				actions[u] = radio.Action{Mode: radio.Quiet}
				continue
			}
			local = slot - startSlots[u]
		}
		stepped++
		a := protos[u].Step(local)
		switch a.Mode {
		case radio.Transmit:
			c := a.Channel
			if !r.valid(u, c) {
				ts.err, ts.errNode = r.invalid(u, slot, a), u
				return
			}
			if txOn[c] == 0 {
				ts.txTouched = append(ts.txTouched, c)
			}
			txOn[c]++
			channel.SetBit(localTx[int(c)*words:(int(c)+1)*words], li)
		case radio.Receive:
			c := a.Channel
			if !r.valid(u, c) {
				ts.err, ts.errNode = r.invalid(u, slot, a), u
				return
			}
			ts.rxU = append(ts.rxU, u)
			ts.rxC = append(ts.rxC, c)
		case radio.Quiet:
		default:
			ts.err, ts.errNode = r.invalid(u, slot, a), u
			return
		}
		if r.storeActions {
			actions[u] = a
		}
	}
	// The single tile counts one decision round every slot.
	if r.tallyInternals {
		ts.tallyRound(stepped)
	}
}

// decideChunk is a multi-tile run's decide round for one NodeID chunk:
// step each started node's protocol in ascending NodeID order, validate,
// and store its action.
//
//nd:hotpath
func (r *syncRun) decideChunk(ci int) {
	ch := &r.chunks[ci]
	slot := r.slot
	startSlots, actions, protos := r.startSlots, r.actions, r.protos
	for u := ch.lo; u < ch.hi; u++ {
		local := slot
		if startSlots != nil {
			if slot < startSlots[u] {
				actions[u] = radio.Action{Mode: radio.Quiet}
				continue
			}
			local = slot - startSlots[u]
		}
		a := protos[u].Step(local)
		switch a.Mode {
		case radio.Transmit, radio.Receive:
			if !r.valid(u, a.Channel) {
				ch.err, ch.errNode = r.invalid(u, slot, a), u
				return
			}
		case radio.Quiet:
		default:
			ch.err, ch.errNode = r.invalid(u, slot, a), u
			return
		}
		actions[u] = a
	}
}

// scatterTile is a multi-tile run's scatter round for one tile: clear the
// tile's previous slot and read its nodes' stored actions into the local
// transmitter masks and the listener list.
//
//nd:hotpath
func (r *syncRun) scatterTile(ti int) {
	ts := &r.tiles[ti]
	ts.beginSlot()
	actions := r.actions
	txOn, localTx, words := ts.txOn, ts.localTx, ts.words
	// A node's position in the tile is its local index.
	for li, u := range ts.nodes {
		switch a := actions[u]; a.Mode {
		case radio.Transmit:
			c := a.Channel
			if txOn[c] == 0 {
				ts.txTouched = append(ts.txTouched, c)
			}
			txOn[c]++
			channel.SetBit(localTx[int(c)*words:(int(c)+1)*words], li)
		case radio.Receive:
			ts.rxU = append(ts.rxU, u)
			ts.rxC = append(ts.rxC, a.Channel)
		}
	}
	// Decision rounds: one per (slot, tile with stepped nodes).
	if r.tallyInternals {
		stepped := len(ts.nodes)
		if r.startSlots != nil {
			stepped = 0
			for _, u := range ts.nodes {
				if r.slot >= r.startSlots[u] {
					stepped++
				}
			}
		}
		if stepped > 0 {
			ts.tallyRound(stepped)
		}
	}
}

// deliverChunk is a multi-tile run's deliver round for one NodeID chunk:
// deliver each pending sender's message in ascending listener order. The
// slots stay set for the caller's coverage apply, which clears them.
//
//nd:hotpath
func (r *syncRun) deliverChunk(ci int) {
	ch := &r.chunks[ci]
	heard := ch.heard
	for i, s := range r.senders[ch.lo:ch.hi] {
		if s != noSender {
			heard = r.deliverMsg(heard, topology.NodeID(s), ch.lo+topology.NodeID(i))
		}
	}
	ch.heard = heard
}

// tileSlotB resolves one tile's listeners — the single tile's phase B, a
// multi-tile run's resolve round: one OverlapResolve per listener — or, on
// a lossy run, the per-bit overlap walk — against its channel's halo
// transmitter mask (the tile's own words when its halo is only itself),
// with the idle, collision and delivery events of a single-tile run
// emitted inline in listener order.
//
//nd:hotpath
func (r *syncRun) tileSlotB(ti int) {
	ts := &r.tiles[ti]
	for i, uid := range ts.rxU {
		c := ts.rxC[i]
		var txw []uint64
		live := ts.txOn[c] != 0
		if ts.ownHalo {
			txw = ts.localTx[int(c)*ts.words : (int(c)+1)*ts.words]
		} else {
			txw, live = r.haloTx(ti, ts, c)
		}
		if !live {
			// Nobody within radio reach of the tile transmits on c:
			// certain silence, no draws.
			if r.wantIdle {
				r.emit(EventIdle, 0, uid, c)
			}
			continue
		}
		row, lo := r.masks.Row(uid, c)
		if !r.lossFree {
			r.resolveLossy(ti, ts, uid, c, row, txw, lo)
			continue
		}
		count, first := channel.OverlapResolve(row, txw[lo:])
		switch {
		case count == 1:
			r.deliver(ts, r.haloNode(ti, ts, lo<<6+first), uid, c)
		case count == 0:
			if r.wantIdle {
				r.emit(EventIdle, 0, uid, c)
			}
		case r.wantColl:
			r.emit(EventCollision, r.haloNode(ti, ts, lo<<6+first), uid, c)
		}
	}
}

// haloTx returns the halo transmitter mask for channel c of tile ti, whose
// halo spans neighbor tiles, and whether any transmitter within it is
// live. The first listener on c each slot assembles the channel's halo
// mask, writing every segment (copied or zeroed) so stale bits from
// earlier slots never survive.
//
//nd:hotpath
func (r *syncRun) haloTx(ti int, ts *tileState, c channel.ID) ([]uint64, bool) {
	base := int(c) * ts.haloWords
	halo := ts.halo[base : base+ts.haloWords]
	if ts.haloStamp[c] == r.slot {
		return halo, ts.haloLive[c]
	}
	ts.haloStamp[c] = r.slot
	hood := r.tl.HaloTiles(ti)
	segs := r.tl.HaloSegments(ti)
	live := false
	for j, s := range hood {
		src := &r.tiles[s]
		dst := halo[segs[j]:segs[j+1]]
		if src.txOn[c] == 0 {
			clear(dst)
			continue
		}
		live = true
		copy(dst, src.localTx[int(c)*src.words:(int(c)+1)*src.words])
		if r.tallyInternals && int(s) != ti {
			ts.haloEx++
			ts.haloWordsCopied += int64(len(dst))
		}
	}
	ts.haloLive[c] = live
	return halo, live
}

// haloNode maps a bit of tile ti's halo space back to its node.
//
//nd:hotpath
func (r *syncRun) haloNode(ti int, ts *tileState, bit int) topology.NodeID {
	if ts.ownHalo {
		return ts.nodes[bit]
	}
	return r.tl.HaloNode(ti, bit)
}
