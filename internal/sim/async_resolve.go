package sim

import (
	"math"
	"math/bits"
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
// allocations would dominate the engine's allocation profile). RunAsync
// resolves every listening frame through it; the differential tests pin it
// to a brute-force reference resolver.
//
//nd:run-scoped envFor re-points every borrowed table at the start of each run
type asyncEnv struct {
	nw            *topology.Network
	cands         [][]topology.Candidate // per listener: decodable transmitters
	masks         *candMasks             // cands compiled (static runs; nil on dynamic ones)
	world         *dynamics.World        // nil for static runs
	frames        [][]asyncFrame         // per node, in start order; appended as generated
	timelines     []*clock.Timeline
	slotsPerFrame int
	loss          *LossModel

	// The frame index: byBucket[w][i] is the index of w's first frame
	// starting in bucket bbBase[w]+i or later, where bbBase[w] is the bucket
	// of w's first frame. appendFrame fills it as frames generate, so it
	// covers every bucket up to that of w's last frame start; later buckets
	// hold no frame start at all (see frameFrom).
	byBucket [][]int32
	bbBase   []int32

	// The transmit bucket table: real time is cut into buckets of one
	// nominal frame (FrameLen, from origin, the earliest node start), and
	// each (bucket, channel) has one NodeID bitmask of the senders with a
	// transmit frame on that channel in that bucket. appendFrame is its only
	// writer; collectSlots ANDs the listener's candidate masks with it (see
	// txWord). Bucket-major: the mask of (b, c) is
	// txBuckets[(b*channels+c)*words:][:words], and the table always covers
	// the buckets of every frame appended so far.
	origin    float64
	frameLen  float64 // the bucket width
	channels  int     // max channel ID of the network, plus one
	words     int     // words per NodeID mask
	txBuckets []uint64

	// Dynamic runs' candidate masks, compiled once per epoch table as the
	// resolver first needs them (epochMasks): epochIdx[e] indexes epoch e's
	// compiled table in epochPool, or is -1 before it is needed. The pool's
	// first epochUsed entries belong to this run; the rest keep their
	// storage for later runs.
	epochPool []candMasks
	epochIdx  []int32
	epochUsed int

	// Scratch buffers, reused across resolveFrame calls:
	txBuf    []txSlot   // collected candidate slots, in collection order
	sweepBuf []idxSlot  // the same slots, sorted by start for the sweep
	flagBuf  []bool     // per collected slot: overlapped by no other sender?
	outBuf   []delivery // resolved deliveries (returned; valid until next call)
	seenBuf  []bool     // per node: already delivered this frame (reset per frame)

	// lastCollected is the number of candidate transmission slots the most
	// recent resolveFrame call collected (0 for non-listening frames) —
	// the engine's EventFrameResolve accounting.
	lastCollected int
}

// maskFor returns listener uid's candidate mask on frame g's channel:
// from the static network table, or — for dynamic runs — from the table of
// the epoch containing the frame's start. A listener inactive in that
// epoch has no candidates (and an inactive transmitter appears in no row),
// so churn gates reception in both directions through the table alone.
// Sampling at the frame start pins each frame to exactly one epoch; a
// transmission straddling the boundary counts iff the listening frame it
// lands in started while the link existed.
//
//nd:hotpath
func (env *asyncEnv) maskFor(uid topology.NodeID, g asyncFrame) []maskWord {
	if env.world == nil {
		return env.masks.row(uid, g.action.Channel)
	}
	return env.epochMasks(env.world.EpochOf(g.start)).row(uid, g.action.Channel)
}

// epochMasks returns epoch e's compiled candidate table, compiling it at
// the first request of the run. Epochs whose reception structure did not
// change share the previous epoch's table (dynamics.World), so they share
// its compiled form too: a run compiles each distinct table once, whatever
// order the engine visits epochs in.
func (env *asyncEnv) epochMasks(e int) *candMasks {
	for len(env.epochIdx) <= e {
		env.epochIdx = append(env.epochIdx, -1)
	}
	if k := env.epochIdx[e]; k >= 0 {
		return &env.epochPool[k]
	}
	cands := env.world.At(e).Cands
	k := int32(-1)
	for p := e - 1; p >= 0 && sameTable(env.world.At(p).Cands, cands); p-- {
		if env.epochIdx[p] >= 0 {
			k = env.epochIdx[p]
			break
		}
	}
	if k < 0 {
		if env.epochUsed == len(env.epochPool) {
			env.epochPool = append(env.epochPool, candMasks{})
		}
		k = int32(env.epochUsed)
		env.epochUsed++
		env.epochPool[k].compile(cands, env.channels)
	}
	env.epochIdx[e] = k
	return &env.epochPool[k]
}

// resolveFrame computes the clear receptions of node u during its listening
// frame g, whose candidate mask on g's channel is mask (maskFor(uid, g);
// the caller looks it up once per frame):
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
// Frames of neighbors must cover the real-time extent of g; RunAsync's
// frame-end order guarantees this (every other node's oldest unresolved
// frame ends at or after g). The returned slice is owned by the env and is
// invalidated by the next resolveFrame call.
//
//nd:hotpath
func (env *asyncEnv) resolveFrame(uid topology.NodeID, g asyncFrame, mask []maskWord) []delivery {
	env.lastCollected = 0
	if g.action.Mode != radio.Receive {
		return nil
	}
	slots := env.collectSlots(g, mask)
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
// slot on g's channel that overlaps g from a candidate in mask (the
// listener's candidate mask on that channel). Collection order — ascending
// neighbor, then frame, then slot — is part of the reproducibility
// contract: the loss model consumes exactly one erasure draw per
// overlapping slot, in this order.
//
//nd:hotpath
func (env *asyncEnv) collectSlots(g asyncFrame, mask []maskWord) []txSlot {
	c := g.action.Channel
	slots := env.txBuf[:0]
	// The mask's words ascend, and so do the bits within a word, so the
	// walk visits candidates in the candidate row's ascending-neighbor
	// order, with the Reaches and span filters resolved when the mask was
	// compiled; both precede every loss draw.
	//
	// A candidate with no transmit frame on c in the listening frame's
	// buckets has no transmit frame on c overlapping it at all (see
	// txWord), so it would collect no slot and draw no erasure: ANDing
	// its bit away leaves the draw sequence unchanged too.
	first, last := env.buckets(g.start, g.end)
	for _, mw := range mask {
		live := mw.bits & env.txWord(c, int(mw.w), first, last)
		for live != 0 {
			w := int(mw.w)<<6 | bits.TrailingZeros64(live)
			live &= live - 1
			wf := env.frames[w]
			// First frame of w possibly overlapping g: the one before the
			// first frame starting in g's first bucket or later. Frames
			// before it end by its start, which precedes g.start.
			idx := env.frameFrom(w, first)
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
					slots = append(slots, txSlot{start: ss, end: se, from: topology.NodeID(w)})
				}
			}
		}
	}
	env.txBuf = slots
	return slots
}

// appendFrame appends node v's next frame, with action a, to its frame
// table and frame index, and marks it in the transmit bucket table: the
// table grows to cover the frame's buckets, and a transmit frame sets v's
// bit on its channel in every one of them (see buckets). It is the one way
// frames enter an env (the engine's generate, and the resolver tests'
// scripted tables). The frame table may reallocate past its reservation
// (reserveFrames).
//
//nd:hotpath
func (env *asyncEnv) appendFrame(v int, a radio.Action) {
	f := len(env.frames[v])
	fs, fe := env.timelines[v].FrameInterval(f)
	env.frames[v] = append(env.frames[v], asyncFrame{start: fs, end: fe, action: a})
	first, last := env.buckets(fs, fe)
	// Frame starts ascend, so frame f is the first to start in every bucket
	// from the one after the previous frame's start to its own.
	if f == 0 {
		env.bbBase[v] = int32(first)
	}
	bb := env.byBucket[v]
	for len(bb) <= first-int(env.bbBase[v]) {
		bb = append(bb, int32(f))
	}
	env.byBucket[v] = bb
	if need := (last + 1) * env.channels * env.words; need > len(env.txBuckets) {
		env.growBuckets(need)
	}
	if a.Mode != radio.Transmit {
		return
	}
	stride := env.channels * env.words
	i := first*stride + int(a.Channel)*env.words + v>>6
	for b := first; b <= last; b, i = b+1, i+stride {
		env.txBuckets[i] |= 1 << (uint(v) & 63)
	}
}

// growBuckets extends the transmit bucket table to need words, zeroed,
// doubling its capacity when it runs out.
func (env *asyncEnv) growBuckets(need int) {
	if need > cap(env.txBuckets) {
		grown := make([]uint64, len(env.txBuckets), max(need, 2*cap(env.txBuckets)))
		copy(grown, env.txBuckets)
		env.txBuckets = grown
	}
	old := len(env.txBuckets)
	env.txBuckets = env.txBuckets[:need]
	clear(env.txBuckets[old:])
}

// bucket returns the transmit bucket holding real time t, which is at or
// after the origin (every frame starts at or after its node's start):
// floor((t−origin)/FrameLen).
func (env *asyncEnv) bucket(t float64) int {
	return int((t - env.origin) / env.frameLen)
}

// buckets returns the bucket range [first, last] of the half-open frame
// [start, end): bucket(start) to bucket(before(end)). Marking and probing
// both use it. Each step of bucket is monotone in t, so two frames that
// overlap for a positive length share a bucket: the later start s lies in
// both, and s ≤ before(end) for either end. The division is exact on
// frame boundaries that are whole multiples of FrameLen from the origin,
// so an aligned ideal frame touches one bucket and probes no neighbor's
// next frame.
func (env *asyncEnv) buckets(start, end float64) (first, last int) {
	return env.bucket(start), env.bucket(before(end))
}

// before returns the largest float64 below t: the last instant of a
// half-open interval ending at t. For positive t that is the bit pattern
// one below.
func before(t float64) float64 {
	if t > 0 {
		return math.Float64frombits(math.Float64bits(t) - 1)
	}
	return math.Nextafter(t, math.Inf(-1))
}

// txWord returns word i of channel c's transmit masks ORed over the
// buckets [first, last]: bit j is set iff sender 64·i+j has a transmit
// frame on c in one of them. It is a superset test: every transmit frame
// on c overlapping a listening frame with buckets [first, last] shares one
// of them (see bucket), so a clear bit proves the sender collects nothing
// there; a set one leaves the exact frame and slot checks to decide.
//
//nd:hotpath
func (env *asyncEnv) txWord(c channel.ID, i, first, last int) uint64 {
	stride := env.channels * env.words
	k := first*stride + int(c)*env.words + i
	var or uint64
	for b := first; b <= last; b, k = b+1, k+stride {
		or |= env.txBuckets[k]
	}
	return or
}

// frameFrom returns the index of sender w's first frame starting in
// bucket b or later (len of w's frame table if none) — one load from the
// frame index, exact whatever order frames are resolved in.
//
//nd:hotpath
func (env *asyncEnv) frameFrom(w, b int) int {
	bb := env.byBucket[w]
	switch i := b - int(env.bbBase[w]); {
	case i <= 0:
		return 0
	case i >= len(bb):
		return len(env.frames[w])
	default:
		return int(bb[i])
	}
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
