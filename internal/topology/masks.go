package topology

import (
	"math"
	"math/bits"

	"m2hew/internal/channel"
)

// CandidateMasks is the channel-major, CSR-style packing of an
// InboundCandidates table: for every (listener u, channel c) pair, a bitset
// over the transmitters v with Reaches(v, u) and c ∈ span(u, v) — the only
// nodes whose transmission on c can be decoded at u. The synchronous
// engine intersects one row against the slot's transmitters-on-c mask with
// word-level kernels (channel.OverlapResolve, or a word-by-word overlap
// walk on the lossy path) instead of scanning the candidate list per
// listener.
//
// Rows are indexed r = p·C + c, where p is the listener's position in the
// bit space's node order, and stored packed: only the word window
// [Lo(r), Lo(r)+rowLen) that actually contains candidate bits is kept, so
// memory is proportional to candidate locality, not N²·C. The bit space
// and the node order are fixed when the table is made:
//
//   - NewCandidateMasks: bit i of row word w is transmitter NodeID
//     64·(lo+w)+i — the bit space of a single tile holding every node —
//     and p is the NodeID;
//   - NewTileMasks: bits live in the listener's tile's halo word space
//     (see Tiling; map them back with Tiling.HaloNode), which keeps every
//     row within its 3×3 neighborhood and the table linear in n, and p is
//     the listener's index in the tiling's tile-major order — TileNodes(0),
//     then TileNodes(1), and so on — so each tile's rows form one
//     contiguous span. A 1×1 tiling's order is NodeID order: its table is
//     word-for-word the NodeID-space one.
//
// Either way the bits match the engine's per-slot transmitter masks, so
// the two intersect directly, and bits enumerate a listener's candidates
// in ascending NodeID order within each tile segment. Row looks a row up
// by NodeID, RowAt by position; an engine that visits a tile's listeners
// in local-index order reads RowAt in memory order.
//
// The table snapshots the candidate table it was packed from: later
// RestrictSpan / DropDirection / SetAvail calls are not reflected.
type CandidateMasks struct {
	tl       *Tiling // halo bit space; nil: NodeID bit space
	channels int
	lo       []int32 // per row: first packed word's index in the bit space
	off      []int32 // per row: start offset into words; len rows+1
	words    []uint64
	hi       []int32 // Rebuild scratch: the packing listener's per-channel window ends
}

// NewCandidateMasks packs the candidate table channel-major in NodeID bit
// space. channels is the number of channel rows per listener (max channel
// ID + 1: the engine's per-slot index uses the same bound). budgetWords
// caps the packed size: when the table would exceed it — or there is
// nothing to pack — nil is returned and the caller stays on the scalar
// resolver. A budget of 0 means unbounded.
func NewCandidateMasks(cands [][]Candidate, channels, budgetWords int) *CandidateMasks {
	return newMasks(nil, cands, channels, budgetWords)
}

// NewTileMasks packs the candidate table into tl's halo-local bit space,
// with NewCandidateMasks's arguments. It additionally returns nil when tl
// does not partition the table's listeners or any candidate lies outside
// its listener's halo: interference then crosses more than one tile
// boundary (the tiling is finer than the network's reach), and the engine
// must not resolve on it. Construction is thereby the tiling's exactness
// check.
func NewTileMasks(tl *Tiling, cands [][]Candidate, channels, budgetWords int) *CandidateMasks {
	if tl == nil {
		return nil
	}
	return newMasks(tl, cands, channels, budgetWords)
}

func newMasks(tl *Tiling, cands [][]Candidate, channels, budgetWords int) *CandidateMasks {
	m := &CandidateMasks{tl: tl}
	if !m.Rebuild(cands, channels, budgetWords) {
		return nil
	}
	return m
}

// Rebuild repacks m in place from cands, in m's bit space, with the
// constructors' arguments and result: the table afterwards equals a fresh
// build from the same input. Storage is reused, so a rebuild whose table
// fits m's capacity allocates nothing — the engine rebuilds one
// scratch-owned table per changed epoch of a dynamic world. The zero
// CandidateMasks packs in NodeID bit space. On false (over budget, nothing
// to pack, or a halo violation) m's contents are unspecified and must not
// be read until a later Rebuild succeeds.
func (m *CandidateMasks) Rebuild(cands [][]Candidate, channels, budgetWords int) bool {
	n := len(cands)
	tl := m.tl
	if n == 0 || channels <= 0 || (tl != nil && n != tl.n) {
		return false
	}
	rows := n * channels
	m.channels = channels
	m.lo = resize(m.lo, rows)
	m.off = resize(m.off, rows+1)
	m.hi = resize(m.hi, channels)
	lo, hi, off := m.lo, m.hi, m.off

	// Pass 1: per-row word windows and sizes, reading the table in NodeID
	// order. A listener's rows are final once its list is done, so the
	// window ends need only a per-channel buffer, and the running total
	// lets the budget check stop at the first listener that passes it. Each
	// row's size is parked at off[r+1] of its position's row until the
	// prefix sum below turns the sizes into offsets.
	total := 0
	for u, list := range cands {
		base := m.pos(u) * channels
		for c := 0; c < channels; c++ {
			lo[base+c] = math.MaxInt32 // hi < lo marks an empty row
			hi[c] = -1
		}
		for _, cand := range list {
			bit := m.bit(u, cand.From)
			if bit < 0 {
				return false // halo violation: tiling too fine for this edge
			}
			vw := int32(bit >> 6)
			for wi, w := range cand.Span.Words() {
				for w != 0 {
					c := wi*64 + bits.TrailingZeros64(w)
					w &= w - 1
					if c >= channels {
						break
					}
					if vw < lo[base+c] {
						lo[base+c] = vw
					}
					if vw > hi[c] {
						hi[c] = vw
					}
				}
			}
		}
		for c := 0; c < channels; c++ {
			r := base + c
			size := int32(0)
			if hi[c] >= lo[r] {
				size = hi[c] - lo[r] + 1
			} else {
				lo[r] = 0
			}
			off[r+1] = size
			total += int(size)
		}
		if budgetWords > 0 && total > budgetWords {
			return false
		}
	}
	off[0] = 0
	for r := 1; r <= rows; r++ {
		off[r] += off[r-1]
	}

	// Pass 2: fill the packed rows, again reading the table in NodeID order.
	m.words = resize(m.words, total)
	words := m.words
	clear(words)
	for u, list := range cands {
		base := m.pos(u) * channels
		for _, cand := range list {
			bit := m.bit(u, cand.From)
			vw := int32(bit >> 6)
			vb := uint64(1) << uint(bit&63)
			for wi, w := range cand.Span.Words() {
				for w != 0 {
					c := wi*64 + bits.TrailingZeros64(w)
					w &= w - 1
					if c >= channels {
						break
					}
					r := base + c
					words[int(off[r])+int(vw-lo[r])] |= vb
				}
			}
		}
	}
	return true
}

// pos returns listener u's position in the table's node order: u itself in
// NodeID space, its index in the tiling's tile-major order in halo space.
func (m *CandidateMasks) pos(u int) int {
	if m.tl == nil {
		return u
	}
	at := m.tl.at[u]
	return int(m.tl.off[at.tile] + at.local)
}

// bit returns transmitter v's bit position in listener u's row space, or
// -1 when v lies outside u's halo.
func (m *CandidateMasks) bit(u int, v NodeID) int {
	if m.tl == nil {
		return int(v)
	}
	return m.tl.haloBit(int(m.tl.at[u].tile), v)
}

// resize returns s re-sliced to length n, reallocating (exactly) only
// when its capacity falls short; contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Row returns listener u's packed transmitter bitset for channel c and the
// index of its first word within u's bit space: bit i of row[w] is bit
// 64·(lo+w)+i of that space (a NodeID, or a halo bit of u's tile). The row
// is empty when no transmission on c can be decoded at u. Shared storage —
// do not modify.
func (m *CandidateMasks) Row(u NodeID, c channel.ID) (row []uint64, lo int) {
	return m.RowAt(m.pos(int(u)), c)
}

// RowAt is Row for the listener at position p of the table's node order:
// the NodeID in NodeID space, and in halo space the tile's first position
// plus the listener's local index, where a tile's first position is the
// node count of the tiles before it. Consecutive positions are adjacent
// rows, so a tile's listeners in local-index order read the table in
// memory order.
//
//nd:hotpath
func (m *CandidateMasks) RowAt(p int, c channel.ID) (row []uint64, lo int) {
	r := p*m.channels + int(c)
	return m.words[m.off[r]:m.off[r+1]], int(m.lo[r])
}

// Tiling returns the tiling whose halo bit space the rows use, or nil for
// NodeID bit space.
func (m *CandidateMasks) Tiling() *Tiling { return m.tl }

// Channels returns the number of channel rows per listener.
func (m *CandidateMasks) Channels() int { return m.channels }

// PackedWords returns the total packed word count — the table's memory
// footprint, which the constructors bound by their budget.
func (m *CandidateMasks) PackedWords() int { return len(m.words) }
