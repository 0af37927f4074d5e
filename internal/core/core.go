// Package core implements the paper's randomized neighbor-discovery
// algorithms for M²HeW networks.
//
// Four protocols are provided, one per algorithm in the paper:
//
//   - SyncStaged (Algorithm 1): synchronous, identical start times,
//     knowledge of an upper bound Δ_est on the maximum node degree. Time is
//     divided into stages of ⌈log₂ Δ_est⌉ slots; in slot i of a stage a node
//     transmits with probability min(1/2, |A(u)|/2^i) on a channel drawn
//     uniformly from A(u).
//   - SyncGrowing (Algorithm 2): synchronous, identical start times, no
//     degree knowledge. Stages of Algorithm 1 are executed with estimates
//     d = 2, 3, 4, … in turn.
//   - SyncUniform (Algorithm 3): synchronous, variable start times,
//     knowledge of Δ_est. Every slot uses the same transmit probability
//     min(1/2, |A(u)|/Δ_est), which makes per-slot coverage probabilities
//     time-invariant and therefore start-time independent.
//   - Async (Algorithm 4): asynchronous with bounded clock drift (δ ≤ 1/7),
//     knowledge of Δ_est. Local time is divided into frames of three slots;
//     per frame a node transmits with probability min(1/2, |A(u)|/(3·Δ_est)),
//     repeating its message in each slot, or listens for the whole frame.
//
// All protocols produce the paper's output: the set of discovered neighbors
// v together with A(v) ∩ A(u), the channels shared with each.
//
// A protocol instance belongs to one node and is driven by a simulation
// engine (package sim): the engine asks for the node's next action and
// delivers clear messages back. Protocols are deterministic functions of
// their RNG stream, so a run is reproducible from its seed.
package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"m2hew/internal/channel"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// NeighborTable is the output of neighbor discovery at one node: for every
// discovered neighbor, the channels shared with it (A(v) ∩ A(u)).
//
// Storage tracks discoveries, not the network size — the paper's output at
// a node is O(Δ) entries, so n tables cost O(n·Δ) together, never O(n²).
// The whole table is one []uint64 slab: a power-of-two array of slots of
// 1 + stride words each, found by Fibonacci hashing with linear probing and
// kept at most half full. A slot's first word holds the neighbor's ID + 1
// (0 marks an empty slot) and the next stride words hold its common set
// inline, so a delivery — a lookup and a subset test — reads one slot,
// usually one cache line, and no map sits on the hot path or leaks its
// iteration order into results. stride is the word width of the widest
// common set recorded so far; a wider record rehashes the slab to the new
// stride. The slab is sized once, lazily, at the first discovery from the
// Reserve hint, so a table that discovers nothing costs nothing; past the
// hint it doubles. Nothing keeps discovery order: readers get neighbors
// sorted by ID.
//
// The zero value is an empty table, ready to use; protocols embed theirs
// by value.
type NeighborTable struct {
	slab   []uint64
	mask   int // slot count − 1; meaningful once n > 0
	stride int // common-set words per slot
	n      int // discovered neighbors
	// hint is the discovery count Reserve promised: the first discovery
	// allocates the smallest slab that holds that many at most half full.
	hint int
}

// minNeighborCap is the discovery count the first slab of a table without
// a Reserve hint is sized for.
const minNeighborCap = 8

// NewNeighborTable returns an empty table.
func NewNeighborTable() *NeighborTable {
	return &NeighborTable{}
}

// Reserve hints the number of neighbors the table expects to discover, so
// a caller that knows it up front (the engines pass each node's inbound
// candidate count) replaces the doubling cascade of sequential discoveries
// with one sized allocation. The allocation is lazy — it happens at the
// first discovery, not here — so reserving a table that never records
// anything costs nothing. Reserving records nothing: Has, Len and
// Neighbors are unchanged, and a hint below the real discovery count only
// costs a later doubling.
func (t *NeighborTable) Reserve(n int) {
	if n > t.hint {
		t.hint = n
	}
}

// hashID spreads a node ID over the slots (Fibonacci hashing); mask is the
// slot count minus one.
func hashID(v topology.NodeID, mask int) int {
	return int((uint64(v)*0x9E3779B97F4A7C15)>>32) & mask
}

// slotsFor returns the smallest power-of-two slot count, at least 2, that
// holds c entries at most half full.
func slotsFor(c int) int {
	slots := 2
	for slots < 2*c {
		slots *= 2
	}
	return slots
}

// find returns the slab offset of v's slot, or -1 when v has not been
// discovered. A negative v is never found (its key would read as empty).
//
//nd:hotpath
func (t *NeighborTable) find(v topology.NodeID) int {
	if t.n == 0 || v < 0 {
		return -1
	}
	w, key := 1+t.stride, uint64(v)+1
	for h := hashID(v, t.mask); ; h = (h + 1) & t.mask {
		switch t.slab[h*w] {
		case key:
			return h * w
		case 0:
			return -1
		}
	}
}

// common views the common set of the slot at slab offset s.
//
//nd:hotpath
func (t *NeighborTable) common(s int) channel.Set {
	end := s + 1 + t.stride
	return channel.FromWords(t.slab[s+1 : end : end])
}

// claim returns the slab offset of v's slot, ready to take width words of
// common set: the slot find returned (s ≥ 0), or a fresh zeroed one for a
// first discovery (s < 0). It first sizes the slab — lazily from the
// Reserve hint, doubling when one more entry would pass half full — and
// widens the stride to width, rehashing when either changes.
func (t *NeighborTable) claim(v topology.NodeID, s, width int) int {
	slots := t.mask + 1
	if s < 0 {
		if t.n == 0 {
			slots = slotsFor(cmp.Or(t.hint, minNeighborCap))
		} else if 2*(t.n+1) > slots {
			slots = max(2*slots, slotsFor(t.hint))
		}
	}
	if slots != t.mask+1 || width > t.stride {
		t.rehash(slots, max(width, t.stride))
		if s >= 0 {
			s = t.find(v)
		}
	}
	if s < 0 {
		s = t.place(v)
		t.n++
	}
	return s
}

// rehash moves every entry into a fresh zeroed slab of the given slot
// count and stride, carrying each common set's words over.
func (t *NeighborTable) rehash(slots, stride int) {
	old, ow := t.slab, 1+t.stride
	t.slab, t.mask, t.stride = make([]uint64, slots*(1+stride)), slots-1, stride
	for o := 0; o < len(old); o += ow {
		if old[o] != 0 {
			s := t.place(topology.NodeID(old[o] - 1))
			copy(t.slab[s+1:], old[o+1:o+ow])
		}
	}
}

// place claims v's first free slot and returns its slab offset.
func (t *NeighborTable) place(v topology.NodeID) int {
	w := 1 + t.stride
	h := hashID(v, t.mask)
	for t.slab[h*w] != 0 {
		h = (h + 1) & t.mask
	}
	t.slab[h*w] = uint64(v) + 1
	return h * w
}

// checkID rejects negative IDs with a panic: node IDs are dense
// non-negative by construction, so a negative ID is a bug, never a data
// condition.
func checkID(v topology.NodeID) {
	if v < 0 {
		panic(fmt.Sprintf("core: NeighborTable: negative node id %d", v))
	}
}

// Record stores neighbor v with the given common channel set. Re-recording a
// neighbor unions the channel sets; in the paper's model repeat receptions
// carry identical sets, so the union is a no-op there, but it keeps the table
// monotone under the unreliable-channel extension. The table copies the
// set's words; it never aliases common.
//
//nd:hotpath
func (t *NeighborTable) Record(v topology.NodeID, common channel.Set) {
	checkID(v)
	s := t.find(v)
	if s >= 0 && common.SubsetOf(t.common(s)) {
		return // nothing new: the union would rewrite equal words
	}
	w := common.Words()
	n := len(w)
	for n > 0 && w[n-1] == 0 {
		n-- // trailing zero words need no stride
	}
	s = t.claim(v, s, n)
	for i, x := range w[:n] {
		t.slab[s+1+i] |= x
	}
}

// RecordIntersect records neighbor v with a ∩ b, computing the intersection
// directly into the table's slot — the allocation-free form of
// Record(v, a.Intersect(b)) used by the delivery hot path. A repeat
// delivery that adds no channels only reads v's slot.
//
//nd:hotpath
func (t *NeighborTable) RecordIntersect(v topology.NodeID, a, b channel.Set) {
	checkID(v)
	s := t.find(v)
	if s >= 0 && a.IntersectionSubsetOf(b, t.common(s)) {
		return // nothing new
	}
	aw, bw := a.Words(), b.Words()
	n := min(len(aw), len(bw))
	for n > 0 && aw[n-1]&bw[n-1] == 0 {
		n-- // trailing zero words need no stride
	}
	s = t.claim(v, s, n)
	for i := 0; i < n; i++ {
		t.slab[s+1+i] |= aw[i] & bw[i]
	}
}

// Common returns the recorded common channel set with v and whether v has
// been discovered. The set is a read-only view into the table's storage,
// valid until the table's next Record or RecordIntersect (which may
// rehash the slab or extend the set in place); Clone it to keep it longer.
func (t *NeighborTable) Common(v topology.NodeID) (channel.Set, bool) {
	if s := t.find(v); s >= 0 {
		return t.common(s), true
	}
	return channel.Set{}, false
}

// Has reports whether v has been discovered.
func (t *NeighborTable) Has(v topology.NodeID) bool { return t.find(v) >= 0 }

// Len returns the number of discovered neighbors.
func (t *NeighborTable) Len() int { return t.n }

// Neighbors returns the discovered neighbor IDs in ascending order.
func (t *NeighborTable) Neighbors() []topology.NodeID {
	return t.AppendNeighbors(make([]topology.NodeID, 0, t.n))
}

// AppendNeighbors appends the discovered neighbor IDs in ascending order
// to dst and returns the extended slice. It only reads the table, so
// concurrent calls on a table nobody is writing are safe; with a reused
// dst it allocates nothing once dst has grown to the table's size.
//
//nd:hotpath
func (t *NeighborTable) AppendNeighbors(dst []topology.NodeID) []topology.NodeID {
	start := len(dst)
	dst = slices.Grow(dst, t.n)[:start+t.n]
	out := dst[start:]
	// Every slot's key is written and only a neighbor's advances j, so the
	// walk needs no unpredictable branch; it stops at the last neighbor.
	w := 1 + t.stride
	for o, j := 0, 0; j < len(out); o += w {
		key := t.slab[o]
		out[j] = topology.NodeID(key - 1)
		if key != 0 {
			j++
		}
	}
	slices.Sort(out)
	return dst
}

// node is the state shared by all protocol implementations.
type node struct {
	avail channel.Set
	// ids caches avail's channels in ascending order so the per-slot channel
	// draw indexes a flat slice instead of re-walking the bitset. The draw is
	// identical to avail.Pick: Pick consumes one IntN(|A(u)|) and returns the
	// target-th smallest channel, which is exactly ids[target].
	ids   []channel.ID
	rng   *rng.Source
	table NeighborTable
}

func newNode(avail channel.Set, r *rng.Source) (node, error) {
	if avail.IsEmpty() {
		return node{}, fmt.Errorf("core: node has empty available channel set")
	}
	if r == nil {
		return node{}, fmt.Errorf("core: node requires a random source")
	}
	a := avail.Clone()
	return node{avail: a, ids: a.IDs(), rng: r}, nil
}

// ReserveNeighbors hints the discovery table's expected size. The engines
// call it (through sim.NeighborReserver) once per run with the node's
// inbound candidate count; results are unchanged — only allocation timing
// moves.
func (n *node) ReserveNeighbors(count int) { n.table.Reserve(count) }

// deliver implements the receive path common to all four algorithms:
// "add ⟨v, A ∩ A(u)⟩ to the set of neighbors". Repeat receptions whose
// payload adds no channels — every repeat, in the paper's model — leave the
// table untouched without materializing the intersection; engines deliver
// the same link many times per run, so this path must not allocate.
//
//nd:hotpath
func (n *node) deliver(msg radio.Message) {
	n.table.RecordIntersect(msg.From, msg.Avail, n.avail)
}

// chooseAction draws the slot/frame action used by every algorithm: a
// channel uniform over A(u), transmit with probability p, else receive.
//
//nd:hotpath
func (n *node) chooseAction(p float64) radio.Action {
	// ids[IntN(len)] is avail.Pick with the bitset walk pre-resolved: the
	// same single IntN draw, the same uniform channel (newNode rejected
	// empty sets, so ids is never empty).
	c := n.ids[n.rng.IntN(len(n.ids))]
	mode := radio.Receive
	if n.rng.Bernoulli(p) {
		mode = radio.Transmit
	}
	return radio.Action{Mode: mode, Channel: c}
}

// ceilLog2 returns ⌈log₂ x⌉ for x ≥ 1.
func ceilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// StageLen returns the number of slots in one Algorithm-1 stage for a given
// degree estimate: ⌈log₂ Δ_est⌉, floored at 1 so the degenerate estimate
// Δ_est = 1 still yields a non-empty stage (the analysis uses
// k = max(1, ⌈log Δ⌉) for the same reason).
func StageLen(deltaEst int) int {
	if l := ceilLog2(deltaEst); l > 1 {
		return l
	}
	return 1
}

// TransmitProbStaged is the transmit probability of slot i (1-based) of an
// Algorithm-1 stage for a node with availSize channels:
// min(1/2, availSize/2^i).
func TransmitProbStaged(availSize, i int) float64 {
	p := float64(availSize) / float64(uint64(1)<<uint(i))
	if p > 0.5 {
		return 0.5
	}
	return p
}

// TransmitProbUniform is Algorithm 3's constant transmit probability:
// min(1/2, availSize/Δ_est).
func TransmitProbUniform(availSize, deltaEst int) float64 {
	p := float64(availSize) / float64(deltaEst)
	if p > 0.5 {
		return 0.5
	}
	return p
}

// TransmitProbAsync is Algorithm 4's per-frame transmit probability:
// min(1/2, availSize/(3·Δ_est)).
func TransmitProbAsync(availSize, deltaEst int) float64 {
	p := float64(availSize) / float64(3*deltaEst)
	if p > 0.5 {
		return 0.5
	}
	return p
}

func validateDeltaEst(deltaEst int) error {
	if deltaEst < 1 {
		return fmt.Errorf("core: degree estimate %d must be at least 1", deltaEst)
	}
	return nil
}

// TransmitProbAsyncSlots generalizes TransmitProbAsync to an arbitrary frame
// division: min(1/2, availSize/(slotsPerFrame·Δ_est)). Used by the E10
// ablation; the paper's value is slotsPerFrame = 3.
func TransmitProbAsyncSlots(availSize, deltaEst, slotsPerFrame int) float64 {
	p := float64(availSize) / float64(slotsPerFrame*deltaEst)
	if p > 0.5 {
		return 0.5
	}
	return p
}
