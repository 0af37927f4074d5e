package sim

import (
	"fmt"
	"math/bits"

	"m2hew/internal/channel"
	"m2hew/internal/metrics"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// syncRun is RunSync's per-run state: configuration distilled to the hot
// loop's needs, the derived network tables, and the scratch-owned buffers.
// It exists so the slot loop decomposes into //nd:hotpath methods instead
// of one megafunction, and so the resolution paths share one delivery
// tail.
//
// Path selection for runs off the tiled parallel path (sync_tiled.go),
// decided per mask table:
//
//   - kernel (listener-major): every slot with a mask table. Listeners
//     resolve in ascending NodeID order — preserving the event contract
//     and the loss-model draw order — each through one word-kernel
//     intersection (candidate-mask row × transmitter mask) instead of a
//     candidate scan; the lossy variant walks the surviving overlap bits
//     in candidate order, drawing exactly as the scalar scan would.
//   - scalar: the candidate-list scan, for slots without a mask table —
//     a static network whose table exceeded its budget (the whole run),
//     or a dynamic epoch whose table did (until the next table change).
//
// The kernel serves dynamic worlds too: masks then holds the current
// epoch's candidate table, repacked in scratch-owned storage whenever the
// world's table changes (Epoch.Cands lists candidates ascending by From,
// so mask bits enumerate them in the scalar scan's order).
type syncRun struct {
	nw       *topology.Network
	n        int
	protos   []SyncProtocol
	obs      Observer
	loss     *LossModel
	coverage *metrics.Coverage

	curCands [][]topology.Candidate
	msgAvail []channel.Set
	masks    *topology.CandidateMasks

	actions   []radio.Action
	avail1    []uint64
	txOn      []int
	txTouched []channel.ID
	txWords   []uint64
	wordsPer  int
	rxList    []topology.NodeID
	rxChs     []channel.ID
	hrs       []HeardReporter
	heard     []topology.NodeID // heard-list snapshot lent to each Deliver

	lossFree bool
	// tiled, when non-nil, routes every slot through the tiled parallel
	// resolver (sync_tiled.go).
	tiled *tiledRun

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
	// on the kernel and tiled paths with EventSlot unsubscribed nothing
	// ever reads them. A dynamic run re-derives it whenever its mask table
	// appears or vanishes.
	storeActions bool

	// ev is the slot-scoped event template: Time and Slot are set once per
	// slot (phase1), the per-event fields (Kind, From, To, Channel) are
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

// phase1 steps every node active in the slot — its protocol's Step with
// the node-local slot index — validates each decision, and scatters it
// into the per-channel transmitter index, the channel-major transmitter
// word masks and the kernel path's listener list.
//
//nd:hotpath
func (r *syncRun) phase1(slot int, active []bool, locals, startSlots []int) error {
	r.ev.Time, r.ev.Slot = float64(slot), slot
	stepped := 0
	for u := 0; u < r.n; u++ {
		local := slot
		if active != nil {
			if !active[u] {
				r.actions[u] = radio.Action{Mode: radio.Quiet}
				continue
			}
			local = locals[u]
			locals[u]++
		} else if startSlots != nil {
			if slot < startSlots[u] {
				r.actions[u] = radio.Action{Mode: radio.Quiet}
				continue
			}
			local = slot - startSlots[u]
		}
		stepped++
		uid := topology.NodeID(u)
		a := r.protos[u].Step(local)
		switch a.Mode {
		case radio.Transmit:
			c := a.Channel
			if !r.valid(uid, c) {
				return r.invalid(uid, slot, a)
			}
			if r.txOn[c] == 0 {
				r.txTouched = append(r.txTouched, c)
			}
			r.txOn[c]++
			if r.txWords != nil {
				channel.SetBit(r.txWords[int(c)*r.wordsPer:(int(c)+1)*r.wordsPer], u)
			}
		case radio.Receive:
			c := a.Channel
			if !r.valid(uid, c) {
				return r.invalid(uid, slot, a)
			}
			if r.rxList != nil {
				// Kernel path: a flat listener list, ascending because u
				// is, so resolveKernel visits exactly the slot's listeners
				// instead of scanning every node.
				r.rxList = append(r.rxList, uid)
				r.rxChs = append(r.rxChs, c)
			}
		case radio.Quiet:
		default:
			return r.invalid(uid, slot, a)
		}
		if r.storeActions {
			r.actions[u] = a
		}
	}
	if r.tallyInternals {
		r.internals.StepperBatches++
		r.internals.StepperBatchNodes += int64(stepped)
		if int64(stepped) > r.internals.MaxStepperBatch {
			r.internals.MaxStepperBatch = int64(stepped)
		}
	}
	return nil
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

// resolveKernel is the listener-major kernel path: ascending NodeID order
// — the event and loss-draw contracts — with the candidate scan replaced
// by one word-kernel intersection per listener. Loss-free listeners
// resolve entirely inside OverlapResolve; lossy listeners walk the
// surviving overlap bits in candidate order, drawing per bit.
//
//nd:hotpath
func (r *syncRun) resolveKernel(slot int) {
	for i, uid := range r.rxList {
		c := r.rxChs[i]
		if r.txOn[c] == 0 {
			// Nobody transmits on c: certain silence, no draws.
			if r.wantIdle {
				r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventIdle, 0, uid, c
				r.obs.OnEvent(r.ev)
			}
			continue
		}
		row, lo := r.masks.Row(uid, c)
		txw := r.txWords[int(c)*r.wordsPer : (int(c)+1)*r.wordsPer]
		if r.lossFree {
			count, first := channel.OverlapResolve(row, txw[lo:])
			switch count {
			case 1:
				r.deliver(topology.NodeID(lo*64+first), uid, c, slot)
			case 0:
				if r.wantIdle {
					r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventIdle, 0, uid, c
					r.obs.OnEvent(r.ev)
				}
			default:
				if r.wantColl {
					r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventCollision, topology.NodeID(lo*64+first), uid, c
					r.obs.OnEvent(r.ev)
				}
			}
			continue
		}
		r.resolveLossy(uid, c, row, txw, lo, slot)
	}
}

// resolveLossy resolves one lossy listener: it intersects the listener's
// mask row with the transmitter mask word by word and walks the overlap
// bits in ascending candidate order, drawing exactly as the scalar scan
// would — one draw per candidate transmitting on the listener's channel
// over an operating link, stopping at the second surviving transmission.
// Words without overlap consume no draws, so certain silence costs none.
//
//nd:hotpath
func (r *syncRun) resolveLossy(uid topology.NodeID, c channel.ID, row, txw []uint64, lo, slot int) {
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
			v := topology.NodeID((lo+i)*64 + b)
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
	if senders == 1 {
		r.deliver(sender, uid, c, slot)
		return
	}
	if senders == 0 {
		if r.wantIdle {
			r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventIdle, 0, uid, c
			r.obs.OnEvent(r.ev)
		}
	} else if r.wantColl {
		r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventCollision, firstSender, uid, c
		r.obs.OnEvent(r.ev)
	}
}

// resolveScalar is the candidate-list scan retained for slots without a
// mask table (over-budget networks and epochs); it is the original Phase 2
// loop of the listener-major engine.
//
//nd:hotpath
func (r *syncRun) resolveScalar(slot int) {
	for u := 0; u < r.n; u++ {
		if r.actions[u].Mode != radio.Receive {
			continue
		}
		uid := topology.NodeID(u)
		c := r.actions[u].Channel
		if r.txOn[c] == 0 {
			// Nobody transmits on c: certain silence, no draws.
			if r.wantIdle {
				r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventIdle, 0, uid, c
				r.obs.OnEvent(r.ev)
			}
			continue
		}
		var sender, firstSender topology.NodeID
		senders := 0
		for _, cand := range r.curCands[u] {
			if r.actions[cand.From].Mode != radio.Transmit || r.actions[cand.From].Channel != c {
				continue
			}
			// The link must operate on c (span precomputed per candidate;
			// adjacency and direction already hold for every candidate).
			if !cand.Span.Contains(c) {
				continue
			}
			// Unreliable channels: the transmission may fade at u.
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
		if senders != 1 {
			// Silence or collision: the node hears nothing useful. The
			// collision event reports only the first surviving transmitter
			// — scanning past the second would consume extra loss draws
			// and break the reproducibility contract above.
			if senders == 0 {
				if r.wantIdle {
					r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventIdle, 0, uid, c
					r.obs.OnEvent(r.ev)
				}
			} else if r.wantColl {
				r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventCollision, firstSender, uid, c
				r.obs.OnEvent(r.ev)
			}
			continue
		}
		r.deliver(sender, uid, c, slot)
	}
}

// deliver is the shared delivery tail: message construction with the
// per-run heard-reporter cache, protocol delivery, the coverage oracle
// (which ignores repeat observations of a covered link), and the delivery
// event.
//
//nd:hotpath
func (r *syncRun) deliver(sender, uid topology.NodeID, c channel.ID, slot int) {
	msg := radio.Message{From: sender, Avail: r.msgAvail[sender]}
	if hr := r.hrs[sender]; hr != nil {
		r.heard = hr.AppendHeard(r.heard[:0])
		msg.Heard = borrowHeard(r.heard)
	}
	r.protos[uid].Deliver(msg)
	r.coverage.Observe(topology.Link{From: sender, To: uid}, float64(slot))
	if r.wantDeliver {
		r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventDeliver, sender, uid, c
		r.obs.OnEvent(r.ev)
	}
}

// clearSlot resets the per-slot transmitter index, word masks, and
// listener list for the next slot.
//
//nd:hotpath
func (r *syncRun) clearSlot() {
	for _, c := range r.txTouched {
		r.txOn[c] = 0
		if r.txWords != nil {
			txw := r.txWords[int(c)*r.wordsPer : (int(c)+1)*r.wordsPer]
			for i := range txw {
				txw[i] = 0
			}
		}
	}
	r.txTouched = r.txTouched[:0]
	r.rxList, r.rxChs = r.rxList[:0], r.rxChs[:0]
}
