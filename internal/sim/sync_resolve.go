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
//     deliver rounds sweep contiguous NodeID chunks, the scatter and
//     resolve rounds run per tile, and coverage is applied after them from
//     the sender slots in ascending NodeID order.
//   - single tile: every other run. One tile holds every node, so local
//     indexes and mask bits are NodeIDs and the halo is the tile itself.
//     The phases run inline, and listeners resolve in ascending NodeID
//     order — preserving the event contract and the loss-model draw order
//     — each through one word-kernel intersection; the lossy variant walks
//     the surviving overlap bits in candidate order, drawing exactly as the
//     scalar scan would. Slots without a mask table — a static network
//     whose table exceeded its budget (the whole run), or a dynamic epoch
//     whose table did (until the next table change) — resolve phase B on
//     the scalar candidate scan instead.
//
// The single tile serves dynamic worlds too: masks then holds the current
// epoch's candidate table, repacked in scratch-owned storage whenever the
// world's table changes (Epoch.Cands lists candidates ascending by From,
// so mask bits enumerate them in the scalar scan's order).
type syncRun struct {
	nw       *topology.Network
	protos   []SyncProtocol
	obs      Observer
	loss     *LossModel
	coverage *metrics.Coverage

	curCands [][]topology.Candidate
	msgAvail []channel.Set
	// masks holds the candidate rows in the run's bit space — NodeIDs on
	// the single tile, halo bits on a multi-tile run; nil sends the single
	// tile's phase B to the scalar scan.
	masks *topology.CandidateMasks

	// The tile pipeline: the per-tile state and, on a multi-tile run only,
	// the tiling, the worker pool, the round closures handed to it (built
	// once per run), the NodeID chunks of the decide and deliver rounds,
	// and the NodeID-indexed sender slots (noSender when empty) that carry
	// resolved deliveries from the resolve round to the deliver round and
	// the coverage apply.
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
	hrs     []HeardReporter

	lossFree bool

	// Engine-internals tallies (see internals.go): integer arithmetic on
	// run-local fields, gated per slot by tallyInternals so runs without an
	// InternalsSink pay one dead boolean test.
	tallyInternals bool
	internals      Internals

	// Per-kind observation gates: obs != nil AND the observer's
	// subscription (EventMasker; AllEvents when undeclared) includes the
	// kind. Emission sites test one boolean instead of re-deriving the
	// mask per event.
	wantDeliver bool
	wantColl    bool
	wantIdle    bool
	wantSlot    bool
	// storeActions gates the per-decision actions[u] stores: the scalar
	// resolver reads them back and the slot event borrows the slice, but
	// with a mask table and EventSlot unsubscribed nothing ever reads
	// them. A dynamic run re-derives it whenever its mask table appears or
	// vanishes.
	storeActions bool

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

// resolveLossy resolves one lossy listener of tile ti: it intersects the
// listener's mask row with the transmitter words of its halo word by word
// and walks the overlap bits in ascending candidate order, drawing exactly
// as the scalar scan would — one draw per candidate transmitting on the
// listener's channel over an operating link, stopping at the second
// surviving transmission. Words without overlap consume no draws, so
// certain silence costs none.
//
//nd:hotpath
func (r *syncRun) resolveLossy(ti int, ts *tileState, uid topology.NodeID, c channel.ID, row, txw []uint64, lo int) {
	txw = txw[lo:]
	var sender, firstSender topology.NodeID
	senders := 0
scan:
	for i, rw := range row {
		w := rw & txw[i]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			// Unreliable channels: the transmission may fade at uid.
			if r.loss.erased() {
				continue
			}
			v := r.haloNode(ti, ts, (lo+i)<<6+b)
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
	switch {
	case senders == 1:
		r.deliver(ts, sender, uid, c)
	case senders == 0:
		if r.wantIdle {
			r.emit(EventIdle, 0, uid, c)
		}
	case r.wantColl:
		r.emit(EventCollision, firstSender, uid, c)
	}
}

// resolveScalar is the single tile's phase B for slots without a mask
// table (over-budget networks and epochs): the candidate-list scan over
// the slot's stored actions.
//
//nd:hotpath
func (r *syncRun) resolveScalar(ts *tileState) {
	for i, uid := range ts.rxU {
		c := ts.rxC[i]
		if ts.txOn[c] == 0 {
			// Nobody transmits on c: certain silence, no draws.
			if r.wantIdle {
				r.emit(EventIdle, 0, uid, c)
			}
			continue
		}
		var sender, firstSender topology.NodeID
		senders := 0
		for _, cand := range r.curCands[uid] {
			if r.actions[cand.From].Mode != radio.Transmit || r.actions[cand.From].Channel != c {
				continue
			}
			// The link must operate on c (span precomputed per candidate;
			// adjacency and direction already hold for every candidate).
			if !cand.Span.Contains(c) {
				continue
			}
			// Unreliable channels: the transmission may fade at uid.
			if r.loss.erased() {
				continue
			}
			if senders == 0 {
				firstSender = cand.From
			}
			senders++
			sender = cand.From
			if senders > 1 {
				break // collision; no need to scan further
			}
		}
		// Silence or collision: the node hears nothing useful. The
		// collision event reports only the first surviving transmitter —
		// scanning past the second would consume extra loss draws and
		// break the reproducibility contract.
		switch {
		case senders == 1:
			r.deliver(ts, sender, uid, c)
		case senders == 0:
			if r.wantIdle {
				r.emit(EventIdle, 0, uid, c)
			}
		case r.wantColl:
			r.emit(EventCollision, firstSender, uid, c)
		}
	}
}

// deliver is the one delivery tail of a resolved listener. A multi-tile
// run records the sender in the listener's NodeID-indexed slot, which the
// deliver round and then the sequential coverage apply read.
// The single tile delivers inline, observes the link on the coverage
// oracle (which ignores repeat observations of a covered link) and emits
// the delivery event, in listener order.
//
//nd:hotpath
func (r *syncRun) deliver(ts *tileState, sender, uid topology.NodeID, c channel.ID) {
	if r.pool != nil {
		r.senders[uid] = int32(sender)
		return
	}
	ts.heard = r.deliverMsg(ts.heard, sender, uid)
	r.coverage.Observe(topology.Link{From: sender, To: uid}, float64(r.slot))
	if r.wantDeliver {
		r.emit(EventDeliver, sender, uid, c)
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
	if hr := r.hrs[sender]; hr != nil {
		heard = hr.AppendHeard(heard[:0])
		msg.Heard = borrowHeard(heard)
	}
	r.protos[uid].Deliver(msg)
	return heard
}
