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
// of one megafunction, and so the three resolution paths share one
// delivery tail.
//
// Path selection, decided once per run (the scalar fallback aside):
//
//   - batched (channel-major): no loss, no per-listener event
//     subscription, mask table within budget. Listeners resolve grouped
//     by channel (resolveBatched): only channels that actually carry a
//     transmission are visited, so silent channels and their listeners
//     cost nothing.
//     Reordering listeners is invisible here: with no observer there is
//     no event order to preserve, with no loss there are no shared-rng
//     draws whose order matters, each listener receives at most one
//     delivery per slot on its own state, and a slot's transmitters are
//     never receivers (half duplex), so no HeardReporter's state can
//     change mid-slot.
//   - kernel (listener-major): a per-listener event subscription or a
//     loss model. Listeners resolve in ascending NodeID order — preserving
//     the event contract and the loss-model draw order — each through
//     one word-kernel intersection (candidate-mask row × transmitter
//     mask) instead of a candidate scan; the lossy variant walks the
//     surviving overlap bits in candidate order, drawing exactly as the
//     scalar scan would.
//   - scalar: the candidate-list scan, for slots without a mask table —
//     a static network whose table exceeded its budget (the whole run),
//     or a dynamic epoch whose table did (until the next table change).
//
// Both kernel paths serve dynamic worlds too: masks then holds the current
// epoch's candidate table, repacked in scratch-owned storage whenever the
// world's table changes (Epoch.Cands lists candidates ascending by From,
// so mask bits enumerate them in the scalar scan's order).
type syncRun struct {
	nw       *topology.Network
	n        int
	protos   []SyncProtocol
	obs      Observer
	loss     *LossModel
	st       Stepper
	bst      BatchStepper
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
	rx        [][]topology.NodeID
	rxTouched []channel.ID
	rxList    []topology.NodeID
	rxChs     []channel.ID
	covered   []uint64
	hrs       []HeardReporter
	heard     []topology.NodeID // heard-list snapshot lent to each Deliver
	us        []topology.NodeID
	ks        []int
	dec       []radio.Action

	lossFree bool
	batched  bool
	// tiled, when non-nil, routes every slot through the tiled parallel
	// resolver (sync_tiled.go); batched is then irrelevant for path
	// selection but still describes what the fallback would have been.
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
	// on the kernel and batched paths with EventSlot unsubscribed nothing
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

// phase1 collects the slot's active nodes, pulls their decisions through
// the stepper seam — one NextBatch call when the stepper supports it —
// and scatters them: fused validation, the per-channel transmitter index,
// the channel-major transmitter word masks, and (batched path) the
// per-channel listener buckets.
//
//nd:hotpath
func (r *syncRun) phase1(slot int, active []bool, locals, startSlots []int) error {
	r.ev.Time, r.ev.Slot = float64(slot), slot
	nb := 0
	us, ks := r.us, r.ks
	if active == nil && startSlots == nil {
		// Static run, uniform start: every node is active with local slot
		// == global slot, so skip the per-node activity scan (us was
		// prefilled 0..n-1 at setup).
		nb = r.n
		for i := 0; i < nb; i++ {
			ks[i] = slot
		}
		return r.phase2(slot, nb)
	}
	for u := 0; u < r.n; u++ {
		var local int
		if active != nil {
			if !active[u] {
				r.actions[u] = radio.Action{Mode: radio.Quiet}
				continue
			}
			local = locals[u]
			locals[u]++
		} else {
			start := 0
			if startSlots != nil {
				start = startSlots[u]
			}
			if slot < start {
				r.actions[u] = radio.Action{Mode: radio.Quiet}
				continue
			}
			local = slot - start
		}
		us[nb] = topology.NodeID(u)
		ks[nb] = local
		nb++
	}
	return r.phase2(slot, nb)
}

// phase2 pulls the slot's nb collected decisions through the stepper seam
// — one NextBatch call when the stepper supports it — validates them, and
// scatters them into the per-channel transmitter index and word masks.
//
//nd:hotpath
func (r *syncRun) phase2(slot, nb int) error {
	us, ks := r.us, r.ks
	dec := r.dec[:nb]
	if r.tallyInternals {
		r.internals.StepperBatches++
		r.internals.StepperBatchNodes += int64(nb)
		if int64(nb) > r.internals.MaxStepperBatch {
			r.internals.MaxStepperBatch = int64(nb)
		}
		if r.bst != nil {
			r.internals.BatchSteps++
		}
	}
	if r.bst != nil {
		r.bst.NextBatch(us[:nb], ks[:nb], dec)
	} else {
		for i := 0; i < nb; i++ {
			dec[i] = r.st.Next(us[i], ks[i])
		}
	}
	for i := 0; i < nb; i++ {
		a := dec[i]
		u := us[i]
		// One switch covers validation and scatter. Validation is fused:
		// the cheap membership check inline — a single word test when
		// every channel ID fits one word (avail1), the set lookup
		// otherwise — and the full Validate only on the failure path for
		// its error message.
		switch a.Mode {
		case radio.Transmit:
			c := a.Channel
			if r.avail1 != nil {
				if uint64(c) > 63 || r.avail1[u]&(uint64(1)<<uint64(c)) == 0 {
					return fmt.Errorf("sim: node %d slot %d: %w", u, slot, a.Validate(r.nw.Avail(u)))
				}
			} else if !r.nw.Avail(u).Contains(c) {
				return fmt.Errorf("sim: node %d slot %d: %w", u, slot, a.Validate(r.nw.Avail(u)))
			}
			if r.txOn[c] == 0 {
				r.txTouched = append(r.txTouched, c)
			}
			r.txOn[c]++
			if r.txWords != nil {
				channel.SetBit(r.txWords[int(c)*r.wordsPer:(int(c)+1)*r.wordsPer], int(u))
			}
		case radio.Receive:
			c := a.Channel
			if r.avail1 != nil {
				if uint64(c) > 63 || r.avail1[u]&(uint64(1)<<uint64(c)) == 0 {
					return fmt.Errorf("sim: node %d slot %d: %w", u, slot, a.Validate(r.nw.Avail(u)))
				}
			} else if !r.nw.Avail(u).Contains(c) {
				return fmt.Errorf("sim: node %d slot %d: %w", u, slot, a.Validate(r.nw.Avail(u)))
			}
			if r.rx != nil {
				if len(r.rx[c]) == 0 {
					r.rxTouched = append(r.rxTouched, c)
				}
				r.rx[c] = append(r.rx[c], topology.NodeID(u))
			} else if r.rxList != nil {
				// Kernel path: a flat listener list, ascending because us
				// is, so resolveKernel visits exactly the slot's listeners
				// instead of scanning every node.
				r.rxList = append(r.rxList, topology.NodeID(u))
				r.rxChs = append(r.rxChs, c)
			}
		case radio.Quiet:
		default:
			return fmt.Errorf("sim: node %d slot %d: %w", u, slot, a.Validate(r.nw.Avail(u)))
		}
		if r.storeActions {
			r.actions[u] = a
		}
	}
	return nil
}

// resolveBatched is the channel-major loss-free path: listeners resolve
// grouped by channel, and only channels carrying a transmission are
// visited — a listener on a silent channel hears nothing and (no
// observer) needs no event, so it is never touched. Each listener still
// resolves through its own candidate-mask row, so results match the
// listener-major kernel bit for bit; only the iteration order differs,
// which the no-observer loss-free preconditions make invisible.
//
//nd:hotpath
func (r *syncRun) resolveBatched(slot int) {
	for _, c := range r.txTouched {
		listeners := r.rx[c]
		if len(listeners) == 0 {
			continue
		}
		ci := int(c) * r.wordsPer
		txw := r.txWords[ci : ci+r.wordsPer]
		for _, uid := range listeners {
			row, lo := r.masks.Row(uid, c)
			if count, first := channel.OverlapResolve(row, txw[lo:]); count == 1 {
				r.deliver(topology.NodeID(lo*64+first), uid, c, slot)
			}
		}
	}
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
// per-run heard-reporter cache, protocol delivery, covered-link
// deduplication in front of the coverage oracle, and the delivery event.
// Skipping a repeat observation is pure: a delivered link is always in the
// coverage target (a dynamic run adds each epoch's links before resolving
// its first slot, and delivers only over that epoch's candidates), and
// observing a covered target link again is a no-op.
//
//nd:hotpath
func (r *syncRun) deliver(sender, uid topology.NodeID, c channel.ID, slot int) {
	msg := radio.Message{From: sender, Avail: r.msgAvail[sender]}
	if hr := r.hrs[sender]; hr != nil {
		r.heard = hr.AppendHeard(r.heard[:0])
		msg.Heard = borrowHeard(r.heard)
	}
	r.protos[uid].Deliver(msg)
	if r.covered != nil {
		idx := int(sender)*r.n + int(uid)
		w, bit := idx>>6, uint64(1)<<(uint(idx)&63)
		if r.covered[w]&bit == 0 {
			r.covered[w] |= bit
			r.coverage.Observe(topology.Link{From: sender, To: uid}, float64(slot))
		}
	} else {
		r.coverage.Observe(topology.Link{From: sender, To: uid}, float64(slot))
	}
	if r.wantDeliver {
		r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventDeliver, sender, uid, c
		r.obs.OnEvent(r.ev)
	}
}

// clearSlot resets the per-slot transmitter index, word masks, and
// listener buckets for the next slot.
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
	if r.rx != nil {
		for _, c := range r.rxTouched {
			r.rx[c] = r.rx[c][:0]
		}
		r.rxTouched = r.rxTouched[:0]
	}
	r.rxList, r.rxChs = r.rxList[:0], r.rxChs[:0]
}
