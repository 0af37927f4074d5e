package sim

import (
	"m2hew/internal/channel"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// This file is the synchronous engine's one slot pipeline. A run's nodes
// are partitioned into tiles (topology.Tiling) and each slot runs as two
// phases per tile:
//
//	phase A  clear the tile's per-slot state, step its nodes' protocols,
//	         validate, and scatter transmitters into the tile-local
//	         per-channel word masks and listeners into the tile's
//	         listener list;
//	barrier  every tile's transmitter masks are final;
//	phase B  for each listener, intersect its candidate row
//	         (topology.CandidateMasks) against its channel's halo
//	         transmitter mask and deliver a unique survivor to its
//	         protocol.
//
// Most runs use a single tile holding every node (see syncRun): its halo
// is the tile itself, so phase B reads the tile's own transmitter words,
// and both phases run inline on the caller. A multi-tile run (cfg.Tiling,
// cell side ≥ radius) runs each phase across a fork-join tilepool — the
// pool's join is the barrier — assembles each listening channel's halo
// mask by word-copying the 3×3 neighbor tiles' segments, and then applies
// coverage on the caller, sequentially in ascending tile order.
//
// Byte-identity of a multi-tile run with the single tile at matched seed
// rests on the multi-tile gate (static world, loss-free, no per-listener
// observer subscription):
//
//   - decisions: every protocol draws from its own per-node rng stream and
//     touches only its own state, and per-node step order is preserved
//     (ascending local slot), so stepping tile-by-tile in parallel yields
//     the same decision sequences — the barrier separates slot s's steps
//     from slot s's deliveries exactly as the single tile's phase split
//     does, so even adaptive (non-oblivious) protocols see the identical
//     interleaving of Step and Deliver calls;
//   - resolution: each listener is resolved by exactly one tile (its own),
//     against a halo mask that the barrier guarantees is the slot's
//     complete transmitter picture within radio reach (NewTileMasks proved
//     structurally that no candidate lies outside the halo), through the
//     same OverlapResolve kernel;
//   - effects: with no loss model there are no shared-rng draws to order,
//     with no per-listener events there is no event order to preserve, a
//     listener receives at most one delivery per slot, and half duplex
//     means no sender's state (HeardReporter snapshots included) can
//     change mid-slot — so the within-slot delivery order is invisible,
//     and the order-sensitive residue (coverage bookkeeping) is applied
//     sequentially after the barrier;
//   - errors: each tile validates its nodes in ascending NodeID order and
//     stops at its first failure; the engine reports the minimum failing
//     node across tiles, which is the first failure an ascending scan
//     would have hit (validity is a per-node property), with the identical
//     message.

// tileDelivery is one multi-tile phase-B delivery, queued for the
// sequential coverage-apply step.
type tileDelivery struct {
	from, to topology.NodeID
}

// tileState is one tile's scratch: phase A's scatter buffers, phase B's
// halo assembly, and the tile's internals tallies. Workers touch
// only their own tile's state during a phase (phase B additionally READS
// neighbor tiles' phase-A outputs, sequenced by the pool barrier), so no
// two goroutines ever write the same state.
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

	deliv []tileDelivery
	heard []topology.NodeID // heard-list snapshot lent to each Deliver

	err     error
	errNode topology.NodeID

	// Internals tallies, accumulated in-worker (gated on tallyInternals)
	// and summed deterministically at run end.
	batches, batchNodes, maxBatch int64
	haloEx, haloWordsCopied       int64
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
		ts.deliv = ts.deliv[:0]
		ts.err = nil
		ts.errNode = 0
		ts.batches, ts.batchNodes, ts.maxBatch = 0, 0, 0
		ts.haloEx, ts.haloWordsCopied = 0, 0
	}
}

// runSlot executes one slot: phase A, the error sweep, the slot event, and
// phase B — across the pool followed by the sequential coverage apply on a
// multi-tile run, inline (or on the scalar scan) on the single tile.
//
//nd:hotpath
func (r *syncRun) runSlot(slot int) error {
	r.slot = slot
	r.ev.Time, r.ev.Slot = float64(slot), slot
	if r.pool != nil {
		r.pool.Run(len(r.tiles), r.fnA)
	} else {
		r.tileSlotA(0)
	}

	// Error sweep: the minimum failing node across tiles is the failure an
	// ascending scan would have reported first.
	var firstErr error
	firstNode := topology.NodeID(-1)
	for t := range r.tiles {
		ts := &r.tiles[t]
		if ts.err != nil && (firstNode < 0 || ts.errNode < firstNode) {
			firstErr, firstNode = ts.err, ts.errNode
		}
	}
	if firstErr != nil {
		return firstErr
	}

	if r.wantSlot {
		r.obs.OnEvent(Event{
			Kind: EventSlot, Time: float64(slot), Slot: slot,
			Actions: r.actions,
		})
	}

	switch {
	case r.pool != nil:
		r.pool.Run(len(r.tiles), r.fnB)
		// Sequential apply: the coverage oracle is shared across tiles, so
		// it runs on the caller in ascending tile order. Within-slot order
		// is invisible in results — every delivery carries the same slot
		// stamp and each link is observed at most once per slot — so any
		// fixed order matches the single tile.
		for t := range r.tiles {
			for _, d := range r.tiles[t].deliv {
				r.coverage.Observe(topology.Link{From: d.from, To: d.to}, float64(slot))
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

// tileSlotA is phase A for one tile: clear the tile's previous slot, step
// its active nodes' protocols in ascending NodeID order, validate, and
// scatter.
//
//nd:hotpath
func (r *syncRun) tileSlotA(ti int) {
	ts := &r.tiles[ti]
	slot := r.slot

	for _, c := range ts.txTouched {
		ts.txOn[c] = 0
		clear(ts.localTx[int(c)*ts.words : (int(c)+1)*ts.words])
	}
	ts.txTouched = ts.txTouched[:0]
	ts.rxU, ts.rxC = ts.rxU[:0], ts.rxC[:0]
	ts.deliv = ts.deliv[:0]
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
	// Decision rounds: one per (slot, tile with active nodes); the single
	// tile counts one round every slot.
	if r.tallyInternals && (stepped > 0 || r.pool == nil) {
		ts.batches++
		ts.batchNodes += int64(stepped)
		if int64(stepped) > ts.maxBatch {
			ts.maxBatch = int64(stepped)
		}
	}
}

// tileSlotB is phase B for one tile: one OverlapResolve per listener — or,
// on a lossy run, the per-bit overlap walk — against its channel's halo
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
