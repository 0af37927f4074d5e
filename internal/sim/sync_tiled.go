package sim

import (
	"m2hew/internal/channel"
	"m2hew/internal/harness/tilepool"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// This file is the tiled parallel resolver — the sharded sync engine. The
// geometric graph is partitioned into grid tiles (topology.Tiling, cell
// side ≥ radius), each slot runs as two fork-join phases on a tilepool:
//
//	phase A  every tile, in parallel: clear its per-slot state, step its
//	         nodes' protocols, validate, and scatter transmitters into the
//	         tile-local per-channel word masks and listeners into the
//	         tile's listener list;
//	barrier  the pool's join publishes every tile's transmitter masks;
//	phase B  every tile, in parallel: for each listening channel, assemble
//	         the halo transmitter mask by word-copying the 3×3 neighbor
//	         tiles' segments, intersect each listener's halo-local
//	         candidate row (topology.TileMasks) against it, and deliver
//	         unique survivors to the listener's protocol;
//	apply    the caller, sequentially in ascending tile order: coverage
//	         bookkeeping for the phase's deliveries.
//
// Byte-identity with the single-threaded engine at matched seed rests on
// the path's preconditions (static world, loss-free, no per-listener
// observer subscription):
//
//   - decisions: every protocol draws from its own per-node rng stream and
//     touches only its own state, and per-node step order is preserved
//     (ascending local slot), so stepping tile-by-tile in parallel yields
//     the decision sequences the serial engine draws — the pool's barrier
//     separates slot s's steps from slot s's deliveries exactly as the
//     serial phase split does, so even adaptive (non-oblivious) protocols
//     see the identical interleaving of Step and Deliver calls;
//   - resolution: each listener is resolved by exactly one tile (its own),
//     against a halo mask that the barrier guarantees is the slot's
//     complete transmitter picture within radio reach (NewTileMasks proved
//     structurally that no candidate lies outside the halo), through the
//     same OverlapResolve kernel as the flat paths;
//   - effects: with no loss model there are no shared-rng draws to order,
//     with no per-listener events there is no event order to preserve, a
//     listener receives at most one delivery per slot, and half duplex
//     means no sender's state (HeardReporter snapshots included) can
//     change mid-slot — so the within-slot delivery order is invisible,
//     and the order-sensitive residue (coverage bookkeeping) is applied
//     sequentially after the barrier;
//   - errors: each tile validates its nodes in ascending NodeID order and
//     stops at its first failure; the engine reports the minimum failing
//     node across tiles, which is the first failure the serial ascending
//     scan would have hit (validity is a per-node property), with the
//     identical message.
type tiledRun struct {
	tl       *topology.Tiling
	masks    *topology.TileMasks
	pool     *tilepool.Pool
	tiles    []tileState
	channels int

	// Per-slot inputs to the phase closures, set by tiledSlot before each
	// pool round; the closures themselves are built once per run.
	slot       int
	startSlots []int
	fnA, fnB   func(int)
}

// tileDelivery is one phase-B delivery, queued for the sequential
// coverage-apply step.
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

	localTx   []uint64 // channel-major transmitter masks, channels × words
	txOn      []int32  // per-channel transmitter count in this tile
	txTouched []channel.ID

	rxU []topology.NodeID
	rxC []channel.ID

	halo      []uint64 // channel-major halo masks, channels × haloWords
	haloStamp []int    // per channel: slot of last assembly (-1 = never)
	haloLive  []bool   // per channel: any transmitter present at last assembly

	deliv []tileDelivery
	heard []topology.NodeID // heard-list snapshot lent to each in-tile Deliver

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
		n := len(ts.nodes)
		ts.localTx = make([]uint64, channels*ts.words)
		ts.txOn = make([]int32, channels)
		ts.txTouched = make([]channel.ID, 0, 8)
		ts.rxU = make([]topology.NodeID, 0, n)
		ts.rxC = make([]channel.ID, 0, n)
		ts.halo = make([]uint64, channels*ts.haloWords)
		ts.haloStamp = make([]int, channels)
		ts.haloLive = make([]bool, channels)
	}
	return tiles
}

// resetTileStates re-zeroes the per-run state: an errored previous run may
// have returned mid-slot with live bits, counts and queues in place.
func resetTileStates(tiles []tileState) {
	for t := range tiles {
		ts := &tiles[t]
		for i := range ts.localTx {
			ts.localTx[i] = 0
		}
		for i := range ts.txOn {
			ts.txOn[i] = 0
		}
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

// tiledSlot executes one slot on the tiled path: phase A across the pool,
// the error sweep, the slot event, phase B across the pool, and the
// sequential coverage apply.
//
//nd:hotpath
func (r *syncRun) tiledSlot(slot int) error {
	tr := r.tiled
	tr.slot = slot
	tr.pool.Run(len(tr.tiles), tr.fnA)

	// Error sweep: the minimum failing node across tiles is the failure the
	// serial ascending scan would have reported first.
	var firstErr error
	firstNode := topology.NodeID(-1)
	for t := range tr.tiles {
		ts := &tr.tiles[t]
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

	tr.pool.Run(len(tr.tiles), tr.fnB)

	// Sequential apply: the coverage oracle is shared across tiles, so it
	// runs on the caller in ascending tile order. Within-slot order is
	// invisible in results — every delivery carries the same slot stamp and
	// each link is observed at most once per slot — so any fixed order
	// matches the serial engine.
	for t := range tr.tiles {
		for _, d := range tr.tiles[t].deliv {
			r.coverage.Observe(topology.Link{From: d.from, To: d.to}, float64(slot))
		}
	}
	return nil
}

// tileSlotA is phase A for one tile: clear the tile's previous slot, step
// its active nodes' protocols, validate, and scatter.
//
//nd:hotpath
func (r *syncRun) tileSlotA(ti int) {
	tr := r.tiled
	ts := &tr.tiles[ti]
	slot := tr.slot

	for _, c := range ts.txTouched {
		ts.txOn[c] = 0
		seg := ts.localTx[int(c)*ts.words : (int(c)+1)*ts.words]
		for i := range seg {
			seg[i] = 0
		}
	}
	ts.txTouched = ts.txTouched[:0]
	ts.rxU, ts.rxC = ts.rxU[:0], ts.rxC[:0]
	ts.deliv = ts.deliv[:0]
	ts.err = nil

	// Step the tile's active nodes in ascending order, mirroring phase1.
	stepped := 0
	for _, u := range ts.nodes {
		local := slot
		if tr.startSlots != nil {
			if slot < tr.startSlots[u] {
				r.actions[u] = radio.Action{Mode: radio.Quiet}
				continue
			}
			local = slot - tr.startSlots[u]
		}
		stepped++
		a := r.protos[u].Step(local)
		switch a.Mode {
		case radio.Transmit:
			c := a.Channel
			if !r.valid(u, c) {
				ts.err, ts.errNode = r.invalid(u, slot, a), u
				return
			}
			if ts.txOn[c] == 0 {
				ts.txTouched = append(ts.txTouched, c)
			}
			ts.txOn[c]++
			channel.SetBit(ts.localTx[int(c)*ts.words:(int(c)+1)*ts.words], tr.tl.LocalIndex(u))
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
			r.actions[u] = a
		}
	}
	if r.tallyInternals && stepped > 0 {
		ts.batches++
		ts.batchNodes += int64(stepped)
		if int64(stepped) > ts.maxBatch {
			ts.maxBatch = int64(stepped)
		}
	}
}

// tileSlotB is phase B for one tile: lazy per-channel halo assembly, then
// one OverlapResolve per listener.
//
//nd:hotpath
func (r *syncRun) tileSlotB(ti int) {
	tr := r.tiled
	ts := &tr.tiles[ti]
	slot := tr.slot
	hood := tr.tl.HaloTiles(ti)
	segs := tr.tl.HaloSegments(ti)
	for i, uid := range ts.rxU {
		c := ts.rxC[i]
		base := int(c) * ts.haloWords
		if ts.haloStamp[c] != slot {
			// First listener on c this slot: assemble the channel's halo
			// mask. Every segment is fully written (copied or zeroed), so
			// stale bits from earlier slots never survive.
			ts.haloStamp[c] = slot
			live := false
			for j, s := range hood {
				src := &tr.tiles[s]
				dst := ts.halo[base+int(segs[j]) : base+int(segs[j+1])]
				if src.txOn[c] == 0 {
					for k := range dst {
						dst[k] = 0
					}
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
		}
		if !ts.haloLive[c] {
			continue // certain silence within radio reach of the whole tile
		}
		row, lo := tr.masks.Row(uid, c)
		if count, first := channel.OverlapResolve(row, ts.halo[base+lo:base+ts.haloWords]); count == 1 {
			r.tiledDeliver(ts, tr.tl.HaloNode(ti, lo<<6+first), uid)
		}
	}
}

// tiledDeliver delivers one unique transmission to a listener's protocol
// in-worker — safe because each listener belongs to exactly one tile and
// sender state is frozen for the slot (half duplex) — and queues the link
// for the sequential coverage apply.
//
//nd:hotpath
func (r *syncRun) tiledDeliver(ts *tileState, sender, uid topology.NodeID) {
	msg := radio.Message{From: sender, Avail: r.msgAvail[sender]}
	if hr := r.hrs[sender]; hr != nil {
		ts.heard = hr.AppendHeard(ts.heard[:0])
		msg.Heard = borrowHeard(ts.heard)
	}
	r.protos[uid].Deliver(msg)
	ts.deliv = append(ts.deliv, tileDelivery{from: sender, to: uid})
}
