package topology

import (
	"math"
	"math/bits"

	"m2hew/internal/channel"
)

// CandidateMasks is the channel-major, CSR-style packing of an
// InboundCandidates table in a tiling's halo bit space: for every
// (listener u, channel c) pair, a bitset over the transmitters v with
// Reaches(v, u) and c ∈ span(u, v) — the only nodes whose transmission on
// c can be decoded at u. The synchronous engine's multi-tile path
// intersects one row against the slot's halo transmitters-on-c mask with
// one word kernel (channel.OverlapResolve) instead of scanning the
// candidate list per listener.
//
// Bits live in the listener's tile's halo word space (see Tiling; map them
// back with Tiling.HaloNode), which keeps every row within its 3×3
// neighborhood. Rows are indexed r = p·C + c, where p is the listener's
// index in the tiling's tile-major order — TileNodes(0), then
// TileNodes(1), and so on — so each tile's rows form one contiguous span,
// and stored packed: only the word window [Lo(r), Lo(r)+rowLen) that
// actually contains candidate bits is kept, so memory is proportional to
// candidate locality, not N²·C, and linear in n for a radius-matched
// tiling. Bits enumerate a listener's candidates in ascending NodeID order
// within each tile segment. Row looks a row up by NodeID, RowAt by
// position; an engine that visits a tile's listeners in local-index order
// reads RowAt in memory order.
//
// The table snapshots the candidate table it was packed from: later
// RestrictSpan / DropDirection / SetAvail calls are not reflected.
type CandidateMasks struct {
	tl       *Tiling
	channels int
	lo       []int32 // per row: first packed word's index in the bit space
	off      []int32 // per row: start offset into words; len rows+1
	words    []uint64
}

// NewTileMasks packs the candidate table channel-major into tl's
// halo-local bit space. channels is the number of channel rows per
// listener (max channel ID + 1: the engine's per-slot index uses the same
// bound). It returns nil when there is nothing to pack, when tl does not
// partition the table's listeners, when any candidate lies outside its
// listener's halo — interference then crosses more than one tile boundary
// (the tiling is finer than the network's reach), and the engine must not
// resolve on it — or when the packed table would exceed budgetWords (0
// means unbounded). Construction is thereby the tiling's exactness check.
func NewTileMasks(tl *Tiling, cands [][]Candidate, channels, budgetWords int) *CandidateMasks {
	n := len(cands)
	if tl == nil || n == 0 || channels <= 0 || n != tl.n {
		return nil
	}
	rows := n * channels
	m := &CandidateMasks{
		tl:       tl,
		channels: channels,
		lo:       make([]int32, rows),
		off:      make([]int32, rows+1),
	}
	lo, off := m.lo, m.off
	hi := make([]int32, channels) // the packing listener's per-channel window ends

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
			bit := tl.haloBit(int(tl.at[u].tile), cand.From)
			if bit < 0 {
				return nil // halo violation: tiling too fine for this edge
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
			return nil
		}
	}
	off[0] = 0
	for r := 1; r <= rows; r++ {
		off[r] += off[r-1]
	}

	// Pass 2: fill the packed rows, again reading the table in NodeID order.
	m.words = make([]uint64, total)
	words := m.words
	for u, list := range cands {
		base := m.pos(u) * channels
		for _, cand := range list {
			bit := tl.haloBit(int(tl.at[u].tile), cand.From)
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
	return m
}

// pos returns listener u's position in the table's node order: its index
// in the tiling's tile-major order.
func (m *CandidateMasks) pos(u int) int {
	at := m.tl.at[u]
	return int(m.tl.off[at.tile] + at.local)
}

// Row returns listener u's packed transmitter bitset for channel c and the
// index of its first word within u's bit space: bit i of row[w] is halo bit
// 64·(lo+w)+i of u's tile. The row is empty when no transmission on c can
// be decoded at u. Shared storage — do not modify.
func (m *CandidateMasks) Row(u NodeID, c channel.ID) (row []uint64, lo int) {
	return m.RowAt(m.pos(int(u)), c)
}

// RowAt is Row for the listener at position p of the table's node order:
// the tile's first position plus the listener's local index, where a
// tile's first position is the node count of the tiles before it.
// Consecutive positions are adjacent rows, so a tile's listeners in
// local-index order read the table in memory order.
//
//nd:hotpath
func (m *CandidateMasks) RowAt(p int, c channel.ID) (row []uint64, lo int) {
	r := p*m.channels + int(c)
	return m.words[m.off[r]:m.off[r+1]], int(m.lo[r])
}

// Tiling returns the tiling whose halo bit space the rows use.
func (m *CandidateMasks) Tiling() *Tiling { return m.tl }

// Channels returns the number of channel rows per listener.
func (m *CandidateMasks) Channels() int { return m.channels }

// PackedWords returns the total packed word count — the table's memory
// footprint, which NewTileMasks bounds by its budget.
func (m *CandidateMasks) PackedWords() int { return len(m.words) }
