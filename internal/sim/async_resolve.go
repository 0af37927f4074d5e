package sim

import (
	"math"
	"slices"

	"m2hew/internal/channel"
	"m2hew/internal/clock"
	"m2hew/internal/dynamics"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// delivery is one resolved clear reception.
type delivery struct {
	at       float64
	from, to topology.NodeID
	ch       channel.ID
}

// txSlot is one transmission slot overlapping the listening frame under
// resolution.
type txSlot struct {
	start, end float64
	from       topology.NodeID
}

// idxSlot is a txSlot carrying its collection-order index through the
// sort-by-start sweep, so sweep verdicts can be written back to
// collection-order flags.
type idxSlot struct {
	txSlot
	idx int32
}

// asyncEnv bundles the state the frame-reception resolver reads, plus the
// scratch buffers it reuses across frames (an env belongs to one run on one
// goroutine; resolveFrame is called once per listening frame, so per-frame
// allocations would dominate the engine's allocation profile). Both the
// pre-generating engine (RunAsync) and the online engine (RunAsyncOnline)
// resolve receptions through it, so the two implementations share the exact
// reception semantics and can be differentially tested against each other.
type asyncEnv struct {
	nw            *topology.Network
	cands         [][]topology.Candidate // per listener: decodable transmitters
	world         *dynamics.World        // nil for static runs
	frames        [][]asyncFrame         // per node, in start order; appended as generated
	timelines     []*clock.Timeline
	slotsPerFrame int
	loss          *LossModel

	// cursor holds, per sender, the frame index the last search of that
	// sender's frames returned: only a hint seekFrame resumes from, so stale
	// values (another listener, another run) cost a longer search, never a
	// wrong answer. Sized to n by envFor.
	cursor []int32

	// Scratch buffers, reused across resolveFrame calls:
	txBuf    []txSlot   // collected candidate slots, in collection order
	sweepBuf []idxSlot  // the same slots, sorted by start for the sweep
	flagBuf  []bool     // per collected slot: overlapped by no other sender?
	outBuf   []delivery // resolved deliveries (returned; valid until next call)
	seenBuf  []bool     // per node: already delivered this frame (reset per frame)

	// lastCollected is the number of candidate transmission slots the most
	// recent resolveFrame call collected (0 for non-listening frames) —
	// the engines' EventFrameResolve accounting.
	lastCollected int
}

// candsFor returns the candidate table row the resolver should use for
// listener uid's frame g: the static network table, or — for dynamic runs —
// the table of the epoch containing the frame's start. A listener inactive
// in that epoch has no candidates (and an inactive transmitter appears in
// no row), so churn gates reception in both directions through the table
// alone. Sampling at the frame start pins each frame to exactly one epoch;
// a transmission straddling the boundary counts iff the listening frame it
// lands in started while the link existed.
//
//nd:hotpath
func (env *asyncEnv) candsFor(uid topology.NodeID, g asyncFrame) []topology.Candidate {
	if env.world == nil {
		return env.cands[uid]
	}
	return env.world.At(env.world.EpochOf(g.start)).Cands[uid]
}

// resolveFrame computes the clear receptions of node u during its listening
// frame g, whose candidate transmitters are cands (the row candsFor returns
// for uid and g; the caller looks it up once per frame):
//
//   - every transmission slot on g's channel from a neighbor that reaches u
//     and overlaps g is collected (erased slots are dropped when a loss
//     model is active);
//   - a collected slot that lies entirely within g is received iff no slot
//     from a different sender overlaps it (slots of the same sender never
//     overlap each other);
//   - at most one delivery per sender per frame is reported, at the end
//     time of the earliest clear slot.
//
// The overlap test runs as a sort-by-start interval sweep (see clearFlags)
// instead of a quadratic all-pairs scan; differential tests pin it to the
// reference resolver in resolver_test.go, which restates collection and
// the all-pairs scan from first principles, including loss-model draw
// order (all draws happen during collection).
//
// Frames of neighbors must cover the real-time extent of g; the caller
// guarantees this (RunAsync generates everything up front, RunAsyncOnline
// maintains it as a scheduling invariant). The returned slice is owned by
// the env and is invalidated by the next resolveFrame call.
//
//nd:hotpath
func (env *asyncEnv) resolveFrame(uid topology.NodeID, g asyncFrame, cands []topology.Candidate) []delivery {
	env.lastCollected = 0
	if g.action.Mode != radio.Receive {
		return nil
	}
	slots := env.collectSlots(g, cands)
	env.lastCollected = len(slots)
	if len(slots) == 0 {
		return nil
	}
	flags := env.clearFlags(slots)

	// Length check, not nil check: a scratch-held env outlives one run and
	// the next network may be larger. Stale values don't matter — the loop
	// below resets exactly the entries the delivery pass reads.
	if len(env.seenBuf) < env.nw.N() {
		env.seenBuf = make([]bool, env.nw.N())
	}
	for _, s := range slots {
		env.seenBuf[s.from] = false
	}
	out := env.outBuf[:0]
	for i, cand := range slots {
		if env.seenBuf[cand.from] {
			continue
		}
		if cand.start < g.start || cand.end > g.end {
			continue // partially heard: cannot be decoded
		}
		if flags[i] {
			env.seenBuf[cand.from] = true
			out = append(out, delivery{at: cand.end, from: cand.from, to: uid, ch: g.action.Channel})
		}
	}
	env.outBuf = out
	return out
}

// collectSlots gathers, into the env's reused buffer, every transmission
// slot on g's channel from a candidate in cands that overlaps g.
// Collection order — ascending neighbor, then frame, then slot — is part of
// the reproducibility contract: the loss model consumes exactly one erasure
// draw per overlapping slot, in this order.
//
//nd:hotpath
func (env *asyncEnv) collectSlots(g asyncFrame, cands []topology.Candidate) []txSlot {
	c := g.action.Channel
	slots := env.txBuf[:0]
	// The candidate table walks the same ascending-neighbor order as
	// Neighbors(uid) with the Reaches and non-empty-span filters resolved up
	// front; both filters precede every loss draw, so the draw sequence is
	// unchanged (a neighbor with an empty span fails the Contains check
	// below before drawing anything).
	for _, cand := range cands {
		if !cand.Span.Contains(c) {
			continue
		}
		w := cand.From
		wf := env.frames[w]
		// First frame of w possibly overlapping g: the one before the
		// first frame starting at or after g.start.
		idx := env.seekFrame(w, wf, g.start)
		if idx > 0 {
			idx--
		}
		for ; idx < len(wf); idx++ {
			fr := wf[idx]
			if fr.start >= g.end {
				break
			}
			if fr.end <= g.start {
				continue
			}
			if fr.action.Mode != radio.Transmit || fr.action.Channel != c {
				continue
			}
			for s := 0; s < env.slotsPerFrame; s++ {
				ss, se := env.timelines[w].FrameSlotInterval(idx, s)
				if se <= g.start || ss >= g.end {
					continue
				}
				// Unreliable channels: the slot may fade at u.
				if env.loss.erased() {
					continue
				}
				slots = append(slots, txSlot{start: ss, end: se, from: w})
			}
		}
	}
	env.txBuf = slots
	return slots
}

// seekFrame returns the index of sender w's first frame starting at or
// after start (len(wf) if none) and leaves it in w's cursor. A listener's
// frames resolve in ascending start order and a sender's frames only grow
// by appending, so the answer is usually at or a few frames past the
// cursor, where a from-scratch binary search over up to MaxFrames frames
// takes a dozen cache-missing probes. The search gallops from the cursor
// (1, 2, 4, … frames) in the direction the frame before it points, then
// binary-searches the last bracket: O(log distance). The cursor is a hint,
// not an invariant: one left by another listener, epoch or run (past the
// end included) costs a longer gallop, never a different answer.
//
//nd:hotpath
func (env *asyncEnv) seekFrame(w topology.NodeID, wf []asyncFrame, start float64) int {
	c := min(int(env.cursor[w]), len(wf))
	// Invariant: wf[i].start < start for i < lo, wf[i].start >= start for i >= hi.
	lo, hi := 0, len(wf)
	if c == 0 || wf[c-1].start < start {
		lo = c
		for step := 1; ; step <<= 1 {
			p := lo + step - 1
			if p >= hi {
				break
			}
			if wf[p].start >= start {
				hi = p
				break
			}
			lo = p + 1
		}
	} else {
		hi = c - 1
		for step := 1; ; step <<= 1 {
			p := hi - step
			if p < lo {
				break
			}
			if wf[p].start < start {
				lo = p + 1
				break
			}
			hi = p
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if wf[mid].start < start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	env.cursor[w] = int32(lo)
	return lo
}

// cmpIdxSlotStart orders sweep slots by start time. Ties may sort either
// way: clearFlags' strict-inequality queries flag both members of an
// overlapping pair regardless of their relative order.
func cmpIdxSlotStart(a, b idxSlot) int {
	switch {
	case a.start < b.start:
		return -1
	case a.start > b.start:
		return 1
	default:
		return 0
	}
}

// clearFlags reports, for each collected slot, whether no slot of a
// different sender overlaps it ("overlaps" with strict inequalities:
// touching endpoints do not interfere). One sort plus two linear sweeps
// replace the naive all-pairs scan:
//
//   - sorted by start, a pair (i before j) overlaps iff i.end > j.start
//     (i.start ≤ j.start < j.end gives the other half for free, slot
//     intervals being never empty);
//   - the forward sweep flags j iff some earlier-sorted slot of a
//     different sender ends after j.start — a running max-end query;
//   - the backward sweep symmetrically flags i iff some later-sorted slot
//     of a different sender starts before i.end — a running min-start
//     query.
//
// Both queries exclude the probing slot's own sender with the two-leader
// trick: maxEnd1 is the best end seen with its sender lead1, maxEnd2 the
// best end among every other sender. The best end excluding sender f is
// then maxEnd1 when lead1 ≠ f, else maxEnd2. Whenever the lead changes,
// the old maxEnd1 — which dominates every earlier end and belongs to a
// different sender than the new lead — becomes maxEnd2, preserving the
// invariant. Results are written into the env's reused flag buffer,
// indexed by collection order.
//
//nd:hotpath
func (env *asyncEnv) clearFlags(slots []txSlot) []bool {
	k := len(slots)
	if cap(env.flagBuf) < k {
		env.flagBuf = make([]bool, k)
	}
	flags := env.flagBuf[:k]
	for i := range flags {
		flags[i] = true
	}
	if k < 2 {
		return flags
	}

	sorted := env.sweepBuf[:0]
	for i, s := range slots {
		sorted = append(sorted, idxSlot{txSlot: s, idx: int32(i)})
	}
	env.sweepBuf = sorted
	slices.SortFunc(sorted, cmpIdxSlotStart)

	// Forward sweep: overlaps with earlier-sorted slots. The -Inf
	// sentinels make the first queries vacuously false.
	const none = topology.NodeID(-1)
	lead1 := none
	maxEnd1 := math.Inf(-1)
	maxEnd2 := math.Inf(-1)
	for _, s := range sorted {
		other := maxEnd1
		if s.from == lead1 {
			other = maxEnd2
		}
		if other > s.start {
			flags[s.idx] = false
		}
		switch {
		case s.from == lead1:
			if s.end > maxEnd1 {
				maxEnd1 = s.end
			}
		case s.end > maxEnd1:
			maxEnd2 = maxEnd1
			lead1 = s.from
			maxEnd1 = s.end
		case s.end > maxEnd2:
			maxEnd2 = s.end
		}
	}

	// Backward sweep: overlaps with later-sorted slots.
	lead1 = none
	minStart1 := math.Inf(1)
	minStart2 := math.Inf(1)
	for i := len(sorted) - 1; i >= 0; i-- {
		s := sorted[i]
		other := minStart1
		if s.from == lead1 {
			other = minStart2
		}
		if other < s.end {
			flags[s.idx] = false
		}
		switch {
		case s.from == lead1:
			if s.start < minStart1 {
				minStart1 = s.start
			}
		case s.start < minStart1:
			minStart2 = minStart1
			lead1 = s.from
			minStart1 = s.start
		case s.start < minStart2:
			minStart2 = s.start
		}
	}
	return flags
}
