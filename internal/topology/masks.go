package topology

import (
	"math/bits"

	"m2hew/internal/channel"
)

// CandidateMasks is the channel-major, CSR-style packing of an
// InboundCandidates table: for every (listener u, channel c) pair, a bitset
// over transmitter NodeIDs v with Reaches(v, u) and c ∈ span(u, v) — the
// only nodes whose transmission on c can be decoded at u. The synchronous
// engine's batched slot resolver intersects one row against the slot's
// transmitters-on-c mask with word-level kernels (channel.OverlapResolve /
// channel.OverlapInto) instead of scanning the candidate list per listener.
//
// Rows are indexed r = u·C + c and stored packed: only the word window
// [Lo(r), Lo(r)+rowLen) that actually contains candidate bits is kept, so
// memory is proportional to candidate locality, not N²·C — the layout the
// sharded large-n engine inherits, where per-tile node ranges make windows
// narrow. Bit i of row word w is transmitter NodeID 64·(lo+w) + i, matching
// the engine's per-slot transmitter masks so the two intersect directly.
//
// Like InboundCandidates, the table snapshots the network it was derived
// from: later RestrictSpan / DropDirection / SetAvail calls are not
// reflected.
type CandidateMasks struct {
	channels int
	lo       []int32 // per row: first packed word's index in the full range
	off      []int32 // per row: start offset into words; len rows+1
	words    []uint64
}

// NewCandidateMasks packs the candidate table channel-major. channels is
// the number of channel rows per listener (max channel ID + 1: the
// engine's per-slot index uses the same bound). budgetWords caps the packed
// size: when the table would exceed it — or there is nothing to pack — nil
// is returned and the caller stays on the scalar resolver. A budget of 0
// means unbounded.
func NewCandidateMasks(cands [][]Candidate, channels, budgetWords int) *CandidateMasks {
	n := len(cands)
	if n == 0 || channels <= 0 {
		return nil
	}
	rows := n * channels

	// Pass 1: per-row word windows.
	lo := make([]int32, rows)
	hi := make([]int32, rows)
	for r := range lo {
		lo[r] = int32(n >> 6) // past any real word; hi < lo marks empty
		hi[r] = -1
	}
	running := 0
	for u, list := range cands {
		base := u * channels
		for _, cand := range list {
			vw := int32(int(cand.From) >> 6)
			for wi, w := range cand.Span.Words() {
				for w != 0 {
					c := wi*64 + bits.TrailingZeros64(w)
					w &= w - 1
					if c >= channels {
						break
					}
					r := base + c
					if vw < lo[r] {
						lo[r] = vw
					}
					if vw > hi[r] {
						hi[r] = vw
					}
				}
			}
		}
		// Rows of listener u are final once its list is done: keep a running
		// total and stop as soon as the budget is exceeded.
		if budgetWords > 0 {
			for r := base; r < base+channels; r++ {
				if hi[r] >= lo[r] {
					running += int(hi[r]-lo[r]) + 1
				}
			}
			if running > budgetWords {
				return nil
			}
		}
	}

	total := 0
	off := make([]int32, rows+1)
	for r := 0; r < rows; r++ {
		if hi[r] >= lo[r] {
			total += int(hi[r]-lo[r]) + 1
		} else {
			lo[r] = 0
		}
		off[r+1] = int32(total)
	}
	if budgetWords > 0 && total > budgetWords {
		return nil
	}

	// Pass 2: fill the packed rows.
	words := make([]uint64, total)
	for u, list := range cands {
		base := u * channels
		for _, cand := range list {
			vw := int32(int(cand.From) >> 6)
			vb := uint64(1) << (uint(cand.From) & 63)
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
	return &CandidateMasks{channels: channels, lo: lo, off: off, words: words}
}

// Row returns listener u's packed transmitter bitset for channel c and the
// index of its first word within the full NodeID word range: bit i of
// row[w] is transmitter NodeID 64·(lo+w)+i. The row is empty when no
// transmission on c can be decoded at u. Shared storage — do not modify.
//
//nd:hotpath
func (m *CandidateMasks) Row(u NodeID, c channel.ID) (row []uint64, lo int) {
	r := int(u)*m.channels + int(c)
	return m.words[m.off[r]:m.off[r+1]], int(m.lo[r])
}

// Channels returns the number of channel rows per listener.
func (m *CandidateMasks) Channels() int { return m.channels }

// PackedWords returns the total packed word count — the table's memory
// footprint, which NewCandidateMasks bounds by its budget.
func (m *CandidateMasks) PackedWords() int { return len(m.words) }
