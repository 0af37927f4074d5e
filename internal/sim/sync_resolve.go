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
// Every slot runs on one tile pipeline (sync_tiled.go): nodes step and
// their decisions scatter into per-tile transmitter masks, and listeners
// resolve against candidate-mask rows. A run takes one of two tilings for
// its whole length:
//
//   - multi-tile: cfg.Tiling, when its gate holds (static world, loss-free,
//     no per-listener event subscription, halo-clean in-budget masks). A
//     slot is four rounds on a tilepool: the protocol-facing decide and
//     deliver rounds sweep contiguous NodeID chunks, and the scatter and
//     resolve rounds run per tile, reading the tile's halo-space
//     candidate-mask rows (topology.CandidateMasks) as one contiguous span
//     of the tile-major table. The deliver round also applies coverage:
//     each chunk writes the coverage words that begin in its listeners'
//     position range, and the caller observes the few deliveries that fall
//     in a word another chunk owns.
//   - single tile: every other run. One tile holds every node, so local
//     indexes and transmitter-mask bits are NodeIDs. The phases run inline,
//     and listeners resolve in ascending NodeID order — preserving the
//     event contract and the loss-model draw order — each by walking its
//     NodeID-space candidate-mask row (candMasks) against the slot's
//     transmitter words, drawing, on a lossy run, exactly as a scan of the
//     candidate list would.
//
// The single tile serves dynamic worlds too: masks then holds the current
// epoch's candidate table, recompiled in scratch-owned storage whenever the
// world's table changes (Epoch.Cands lists candidates ascending by From,
// so mask bits enumerate them in candidate order).
type syncRun struct {
	nw       *topology.Network
	protos   []SyncProtocol
	obs      Observer
	loss     *LossModel
	coverage *metrics.Coverage

	msgAvail []channel.Set
	// masks holds the single tile's NodeID-space candidate rows: the
	// network's, or on a dynamic run the current epoch's. tileMasks holds
	// a multi-tile run's rows in halo bit space.
	masks     *candMasks
	tileMasks *topology.CandidateMasks

	// The tile pipeline: the per-tile state and, on a multi-tile run only,
	// the tiling, the worker pool, the round closures handed to it (built
	// once per run), the NodeID chunks of the decide and deliver rounds
	// with one coverage shard each, and the NodeID-indexed sender slots
	// (noSender when empty) that carry resolved deliveries from the
	// resolve round to the deliver round.
	tl                                        *topology.Tiling
	tiles                                     []tileState
	pool                                      *tilepool.Pool
	fnDecide, fnScatter, fnResolve, fnDeliver func(int)
	chunks                                    []nodeChunk
	senders                                   []int32

	// Per-slot inputs to the phases: the slot, and each node's decision
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

	// tallyInternals gates the per-tile engine-internals tallies (see
	// internals.go) per slot, so runs without an InternalsSink pay one dead
	// boolean test.
	tallyInternals bool

	// Per-kind observation gates: obs != nil AND the observer's
	// subscription (EventMasker; AllEvents when undeclared) includes the
	// kind. Emission sites test one boolean instead of re-deriving the
	// mask per event. The single tile stores each decision in actions[u]
	// only for the slot event, the one reader of the slice there.
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

// tileSlotB is the single tile's phase B. Each listener, in ascending
// NodeID order, walks its candidate-mask row against its channel's
// transmitter mask entry by entry, e.bits & txw[e.w]: the overlap bits are
// exactly its candidates transmitting on its channel over an operating
// link, visited in ascending candidate order. A lossy run draws one
// erasure per visited bit, and the walk stops at the second surviving
// transmission — the candidate scan's draw contract — so words without
// overlap, and channels nobody transmits on, consume no draws. The
// collision event reports only the first surviving transmitter. Idle,
// collision and delivery events are emitted inline in listener order.
//
//nd:hotpath
func (r *syncRun) tileSlotB() {
	ts := &r.tiles[0]
	at := float64(r.slot)
	for i, li := range ts.rxL {
		uid, c := topology.NodeID(li), ts.rxC[i]
		var sender, firstSender topology.NodeID
		senders := 0
		if ts.txOn[c] != 0 {
			txw := ts.localTx[int(c)*ts.words : (int(c)+1)*ts.words]
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
			ts.heard = r.deliverMsg(ts.heard, sender, uid)
			r.coverage.Observe(topology.Link{From: sender, To: uid}, at)
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
