package sim

import (
	"fmt"
	"math/bits"

	"m2hew/internal/channel"
	"m2hew/internal/harness/tilepool"
	"m2hew/internal/metrics"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// syncRun is RunSync's per-run state: configuration distilled to the hot
// loop's needs, the derived network tables, and the scratch-owned buffers.
// It exists so the slot loop decomposes into //nd:hotpath methods instead
// of one megafunction.
//
// Every slot runs on one pipeline (sync_tiled.go): the decide round steps
// the nodes and sets their transmitter bits in NodeID-space word masks,
// and the resolve round walks each listener's candidate-mask row
// (candMasks) against them. Both rounds run per NodeID chunk. A run takes
// one of two shapes for its whole length:
//
//   - parallel: cfg.Tiling, when its gate holds (static world, loss-free,
//     no per-listener event subscription). The chunks start on multiples
//     of 64 nodes, and with more than one worker each round runs on a
//     tilepool. The resolve round also applies coverage: each chunk writes
//     the coverage words that begin in its listeners' position range, and
//     the caller observes the few deliveries that fall in a word another
//     chunk owns.
//   - single tile: every other run. One chunk holds every node and the
//     rounds run inline, so listeners resolve in ascending NodeID order —
//     preserving the event contract and the loss-model draw order — each
//     drawing, on a lossy run, exactly as a scan of the candidate list
//     would.
//
// The single tile serves dynamic worlds too: masks then holds the current
// epoch's candidate table, recompiled in scratch-owned storage whenever the
// world's table changes (Epoch.Cands lists candidates ascending by From,
// so mask bits enumerate them in candidate order).
//
//nd:run-scoped each RunSync call makes its own syncRun, which dies with the run
type syncRun struct {
	nw       *topology.Network
	protos   []SyncProtocol
	obs      Observer
	loss     *LossModel
	coverage *metrics.Coverage

	msgAvail []channel.Set
	// masks holds the NodeID-space candidate rows: the network's, or on a
	// dynamic run the current epoch's.
	masks *candMasks

	// The slot pipeline: the transmitter masks (channel-major, words words
	// per channel), the slot each channel last had a transmitter in
	// (txSlot[c] == slot: some chunk set a bit on c this slot), the NodeID
	// chunks, and on a parallel run with more than one worker the pool and
	// the round closures handed to it (built once per run). tiled marks the
	// parallel path for the internals report.
	words               int
	tx                  []uint64
	txSlot              []int
	chunks              []nodeChunk
	tiled               bool
	pool                *tilepool.Pool
	fnDecide, fnResolve func(int)

	// Per-slot inputs to the rounds: the slot, and each node's decision
	// index — slot − startSlots[u] with staggered starts, or, in a dynamic
	// world, locals[u], the node's count of active slots (nodes inactive in
	// the current epoch stay quiet).
	slot       int
	startSlots []int
	active     []bool
	locals     []int

	actions []radio.Action
	avail1  []uint64
	hrs     []HeardReporter // per-node heard reporters; nil when the run has none

	// tallyInternals gates the engine-internals tallies (see internals.go)
	// per slot, so runs without an InternalsSink pay one dead boolean test:
	// the decision rounds, their summed sizes and the largest.
	tallyInternals                bool
	batches, batchNodes, maxBatch int64

	// Per-kind observation gates: obs != nil AND the observer's
	// subscription (EventMasker; AllEvents when undeclared) includes the
	// kind. Emission sites test one boolean instead of re-deriving the
	// mask per event. The decide round stores each decision in actions[u]
	// only for the slot event, the one reader of the slice.
	wantDeliver bool
	wantColl    bool
	wantIdle    bool
	wantSlot    bool

	// ev is the slot-scoped event template: Time and Slot are set once per
	// slot (runSlot), the per-event fields (Kind, From, To, Channel) are
	// overwritten — all four, every emission — at each use. The remaining
	// fields stay zero for these event kinds, so reusing the value emits
	// exactly the events the per-emission literals did.
	ev Event
}

// NeighborReserver is optionally implemented by protocols whose discovery
// state can be pre-sized: the engines call it once per run with the
// expected number of discoveries — the node's inbound candidate count, the
// neighbors it can ever hear on the static network — replacing
// per-discovery growth cascades with one sized allocation. The hint must
// stay lazy: implementations allocate at the first discovery, not in this
// call, so a large run whose nodes mostly discover little pays only for
// what they record. Implementations must not change results — reserving
// moves allocation timing only (core's NeighborTable.Reserve is the model).
type NeighborReserver interface {
	ReserveNeighbors(expected int)
}

// reserveNeighbors announces a node's inbound candidate count to its
// protocol, when the protocol can use it.
func reserveNeighbors(p any, cands []topology.Candidate) {
	if r, ok := p.(NeighborReserver); ok {
		r.ReserveNeighbors(len(cands))
	}
}

// valid is the fused membership check of a decision's channel: a single
// word test when every channel ID fits one word (avail1), the set lookup
// otherwise. The full Validate runs only on the failure path (invalid),
// for its error message.
//
//nd:hotpath
func (r *syncRun) valid(u topology.NodeID, c channel.ID) bool {
	if r.avail1 != nil {
		return uint64(c) <= 63 && r.avail1[u]&(uint64(1)<<uint64(c)) != 0
	}
	return r.nw.Avail(u).Contains(c)
}

// invalid returns the error for node u's rejected decision a.
func (r *syncRun) invalid(u topology.NodeID, slot int, a radio.Action) error {
	return fmt.Errorf("sim: node %d slot %d: %w", u, slot, a.Validate(r.nw.Avail(u)))
}

// emit sends one per-listener event; callers gate it on the kind's want
// flag.
//
//nd:hotpath
func (r *syncRun) emit(kind EventKind, from, to topology.NodeID, c channel.ID) {
	r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = kind, from, to, c
	r.obs.OnEvent(r.ev)
}

// resolve is the resolve round for one chunk. Each listener, in ascending
// NodeID order, walks its candidate-mask row against its channel's
// transmitter mask entry by entry, e.bits & tx[e.w]: the overlap bits are
// exactly its candidates transmitting on its channel over an operating
// link, visited in ascending candidate order. A lossy run draws one
// erasure per visited bit, and the walk stops at the second surviving
// transmission — the candidate scan's draw contract — so words without
// overlap, and channels nobody transmits on, consume no draws. A lone
// survivor is delivered and its link observed on the chunk's shard. The
// collision event reports only the first surviving transmitter. Idle,
// collision and delivery events are emitted inline in listener order; the
// parallel gate keeps loss and these events on the one-chunk inline run.
//
//nd:hotpath
func (r *syncRun) resolve(ci int) {
	ch := &r.chunks[ci]
	at := float64(r.slot)
	heard := ch.heard
	for i, uid := range ch.rxU {
		c := ch.rxC[i]
		var sender, firstSender topology.NodeID
		senders := 0
		if r.txSlot[c] == r.slot {
			txw := r.tx[int(c)*r.words : (int(c)+1)*r.words]
		scan:
			for _, e := range r.masks.row(uid, c) {
				for w := e.bits & txw[e.w]; w != 0; w &= w - 1 {
					// Unreliable channels: the transmission may fade at uid.
					if r.loss.erased() {
						continue
					}
					v := topology.NodeID(int(e.w)<<6 | bits.TrailingZeros64(w))
					if senders == 0 {
						firstSender = v
					}
					senders++
					sender = v
					if senders > 1 {
						break scan // collision; no need to scan further
					}
				}
			}
		}
		switch {
		case senders == 1:
			heard = r.deliverMsg(heard, sender, uid)
			if l := (topology.Link{From: sender, To: uid}); !ch.shard.Observe(l, at) {
				ch.deferred = append(ch.deferred, l)
			}
			if r.wantDeliver {
				r.emit(EventDeliver, sender, uid, c)
			}
		case senders == 0:
			if r.wantIdle {
				r.emit(EventIdle, 0, uid, c)
			}
		case r.wantColl:
			r.emit(EventCollision, firstSender, uid, c)
		}
	}
	ch.heard = heard
}

// deliverMsg builds sender's message — its shared availability set and,
// from a HeardReporter, a heard-list snapshot taken into heard — delivers
// it to uid's protocol, and returns heard for reuse. Sender state is
// frozen for the slot (half duplex), so the snapshot is the same whichever
// worker takes it.
//
//nd:hotpath
func (r *syncRun) deliverMsg(heard []topology.NodeID, sender, uid topology.NodeID) []topology.NodeID {
	msg := radio.Message{From: sender, Avail: r.msgAvail[sender]}
	if r.hrs != nil { // nil: no protocol of the run reports heard-lists
		if hr := r.hrs[sender]; hr != nil {
			heard = hr.AppendHeard(heard[:0])
			msg.Heard = borrowHeard(heard)
		}
	}
	r.protos[uid].Deliver(msg)
	return heard
}
