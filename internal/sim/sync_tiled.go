package sim

import (
	"m2hew/internal/channel"
	"m2hew/internal/metrics"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// This file is the synchronous engine's one slot pipeline. A run's nodes
// are split into contiguous NodeID chunks whose boundaries are multiples
// of 64, so each chunk owns whole words of every channel's NodeID
// transmitter mask. A slot is two rounds over the chunks:
//
//	decide   per chunk: clear the mask words the chunk set last slot,
//	         step each node's protocol in ascending NodeID order (start
//	         slots and churn honoured), validate, store the action for the
//	         slot event, set each transmitter's bit and list the listeners;
//	resolve  per chunk: walk each listener's candidate-mask row (candMasks,
//	         NodeID space, shared with the asynchronous engines) against
//	         its channel's transmitter mask, in ascending NodeID order, and
//	         deliver a lone survivor inline, observing the link on the
//	         chunk's coverage shard.
//
// Most runs have one chunk holding every node, run inline on the caller:
// the single tile. A run with a Tiling whose gate holds (static world,
// loss-free, no per-listener observer subscription) is the parallel path:
// several chunks, and with more than one worker each round runs on a
// tilepool whose join is the round's barrier. Per-node protocol state —
// protocols, their rng streams and neighbor tables — was allocated in
// NodeID order, so both rounds sweep it in memory order, and on a
// spatially numbered network (topology.GeometricCSR) a chunk's listeners'
// candidates mostly lie in and near the chunk's own words.
//
// Coverage positions number links by listener, so a chunk's links form one
// position range, and its shard writes the 64-position coverage words that
// begin inside it. A delivery in the word the range begins inside belongs
// to the previous chunk's last word; the shard defers it. The caller then
// commits each shard's count of new coverages and observes the deferred
// deliveries, at most 63 positions per chunk.
//
// Byte-identity of the parallel path with the single tile at matched seed
// rests on its gate:
//
//   - decisions: every protocol draws from its own per-node rng stream and
//     touches only its own state, and each node keeps its call order —
//     Step(s), then its slot-s Deliver if any, then Step(s+1) — because the
//     rounds are separated by barriers. Which worker sweeps which chunk is
//     invisible, so even adaptive (non-oblivious) protocols see the
//     identical interleaving of Step and Deliver calls;
//   - resolution: each listener is resolved by its own chunk against the
//     complete NodeID transmitter masks the barrier publishes, on the same
//     candidate row, so a lone survivor is the same sender;
//   - effects: with no loss model there are no shared-rng draws to order,
//     with no per-listener events there is no event order to preserve, a
//     listener receives at most one delivery per slot, and half duplex
//     means no sender's state (HeardReporter snapshots included) can
//     change within a slot, even while other chunks deliver — so the
//     within-slot delivery order is invisible. The shared residue,
//     coverage bookkeeping, is split by memory: each link has one
//     position, each coverage word one writer (a chunk's shard or, for
//     the deferred deliveries, the caller after the round), and every
//     observation of a slot carries the slot's time, so the covered bits,
//     first-coverage times and remaining count do not depend on the order
//     in which a slot's observations land;
//   - errors: each chunk validates its nodes in ascending order and stops
//     at its first failure; the engine reports the minimum failing node
//     across chunks, which is the first failure an ascending scan would
//     have hit (validity is a per-node property), with the identical
//     message;
//   - internals: every run counts one decision round per slot, summed over
//     the chunks.

// nodeChunk is one contiguous NodeID range [lo, hi) of the slot pipeline,
// with its round state: the channels it set transmitter bits on, its
// listeners, the decide round's error and step count, the heard-list
// snapshot lent to each Deliver, the range's coverage shard and the
// deliveries the shard leaves to the caller. A worker touches only its own
// chunk (and its own words of the transmitter masks).
type nodeChunk struct {
	lo, hi topology.NodeID // lo a multiple of 64; hi too, unless it is n

	txOn      []bool // per channel: the chunk set a transmitter bit this slot
	txTouched []channel.ID

	// The slot's listeners, ascending, and their channels.
	rxU []topology.NodeID
	rxC []channel.ID

	stepped int
	err     error
	errNode topology.NodeID

	heard    []topology.NodeID
	shard    metrics.Shard
	deferred []topology.Link
}

// minChunkNodes is the smallest NodeID chunk worth a pool round's steal.
const minChunkNodes = 256

// chunkCount returns how many NodeID chunks a parallel run of n nodes on
// the given worker count sweeps: four per worker, so the pool's cursor can
// balance uneven protocol costs, but none smaller than minChunkNodes.
func chunkCount(n, workers int) int {
	return max(1, min(4*workers, n/minChunkNodes))
}

// chunkBounds returns chunk i of count over n nodes: the n/64 mask words
// split evenly, so every boundary but the last node's is a multiple of
// 64. Chunks are non-empty while count ≤ ⌈n/64⌉.
func chunkBounds(i, count, n int) (lo, hi topology.NodeID) {
	words := (n + 63) / 64
	return topology.NodeID(64 * (i * words / count)), topology.NodeID(min(n, 64*((i+1)*words/count)))
}

// runSlot executes one slot: the decide round, the error sweep and
// decision tally, the slot event, the resolve round, and the commit of
// each chunk's coverage shard with its deferred deliveries.
//
//nd:hotpath
func (r *syncRun) runSlot(slot int) error {
	r.slot = slot
	r.ev.Time, r.ev.Slot = float64(slot), slot
	if r.pool != nil {
		r.pool.Run(len(r.chunks), r.fnDecide)
	} else {
		for ci := range r.chunks {
			r.decide(ci)
		}
	}
	// Error sweep: the minimum failing node across chunks is the failure an
	// ascending scan would have reported first.
	var firstErr error
	firstNode := topology.NodeID(-1)
	stepped := 0
	for i := range r.chunks {
		ch := &r.chunks[i]
		if ch.err != nil && (firstNode < 0 || ch.errNode < firstNode) {
			firstErr, firstNode = ch.err, ch.errNode
		}
		stepped += ch.stepped
		for _, c := range ch.txTouched {
			r.txSlot[c] = slot
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if r.tallyInternals {
		r.batches++
		r.batchNodes += int64(stepped)
		r.maxBatch = max(r.maxBatch, int64(stepped))
	}

	if r.wantSlot {
		r.obs.OnEvent(Event{
			Kind: EventSlot, Time: float64(slot), Slot: slot,
			Actions: r.actions,
		})
	}

	if r.pool != nil {
		r.pool.Run(len(r.chunks), r.fnResolve)
	} else {
		for ci := range r.chunks {
			r.resolve(ci)
		}
	}
	// The chunks applied their own coverage words; what is left is each
	// chunk's count and the few deliveries in a word another chunk owns.
	for i := range r.chunks {
		ch := &r.chunks[i]
		ch.shard.Commit()
		for _, l := range ch.deferred {
			r.coverage.Observe(l, float64(slot))
		}
		ch.deferred = ch.deferred[:0]
	}
	return nil
}

// decide is the decide round for one chunk: clear the mask words the chunk
// set last slot, step its active nodes' protocols in ascending NodeID
// order, validate, set each transmitter's bit in its channel's mask and
// list the listeners.
//
//nd:hotpath
func (r *syncRun) decide(ci int) {
	ch := &r.chunks[ci]
	slot, words, tx := r.slot, r.words, r.tx
	wlo, whi := int(ch.lo)>>6, (int(ch.hi)+63)>>6
	for _, c := range ch.txTouched {
		ch.txOn[c] = false
		clear(tx[int(c)*words+wlo : int(c)*words+whi])
	}
	ch.txTouched = ch.txTouched[:0]
	ch.rxU, ch.rxC = ch.rxU[:0], ch.rxC[:0]
	ch.err = nil

	stepped := 0
	active, locals, startSlots, actions, protos := r.active, r.locals, r.startSlots, r.actions, r.protos
	for u := ch.lo; u < ch.hi; u++ {
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
				ch.err, ch.errNode = r.invalid(u, slot, a), u
				return
			}
			if !ch.txOn[c] {
				ch.txOn[c] = true
				ch.txTouched = append(ch.txTouched, c)
			}
			channel.SetBit(tx[int(c)*words:(int(c)+1)*words], int(u))
		case radio.Receive:
			c := a.Channel
			if !r.valid(u, c) {
				ch.err, ch.errNode = r.invalid(u, slot, a), u
				return
			}
			ch.rxU = append(ch.rxU, u)
			ch.rxC = append(ch.rxC, c)
		case radio.Quiet:
		default:
			ch.err, ch.errNode = r.invalid(u, slot, a), u
			return
		}
		if r.wantSlot {
			actions[u] = a
		}
	}
	ch.stepped = stepped
}
