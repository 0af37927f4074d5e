package topology

import (
	"math/bits"

	"m2hew/internal/channel"
)

// CandidateMasks is the channel-major, CSR-style packing of an
// InboundCandidates table: for every (listener u, channel c) pair, a bitset
// over transmitter NodeIDs v with Reaches(v, u) and c ∈ span(u, v) — the
// only nodes whose transmission on c can be decoded at u. The synchronous
// engine's word-kernel slot resolver intersects one row against the slot's
// transmitters-on-c mask with word-level kernels (channel.OverlapResolve,
// or a word-by-word overlap walk on the lossy path) instead of scanning the
// candidate list per listener.
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
	hi       []int32 // Rebuild scratch: the packing listener's per-channel window ends
}

// NewCandidateMasks packs the candidate table channel-major. channels is
// the number of channel rows per listener (max channel ID + 1: the
// engine's per-slot index uses the same bound). budgetWords caps the packed
// size: when the table would exceed it — or there is nothing to pack — nil
// is returned and the caller stays on the scalar resolver. A budget of 0
// means unbounded.
func NewCandidateMasks(cands [][]Candidate, channels, budgetWords int) *CandidateMasks {
	m := new(CandidateMasks)
	if !m.Rebuild(cands, channels, budgetWords) {
		return nil
	}
	return m
}

// Rebuild repacks m in place from cands, with NewCandidateMasks's
// arguments and result: the table afterwards equals a fresh
// NewCandidateMasks(cands, channels, budgetWords). Storage is reused, so a
// rebuild whose table fits m's capacity allocates nothing — the engine
// rebuilds one scratch-owned table per changed epoch of a dynamic world.
// On false (over budget or nothing to pack) m's contents are unspecified
// and must not be read until a later Rebuild succeeds.
func (m *CandidateMasks) Rebuild(cands [][]Candidate, channels, budgetWords int) bool {
	n := len(cands)
	if n == 0 || channels <= 0 {
		return false
	}
	rows := n * channels
	m.channels = channels
	m.lo = resize(m.lo, rows)
	m.off = resize(m.off, rows+1)
	m.hi = resize(m.hi, channels)
	lo, hi, off := m.lo, m.hi, m.off

	// Pass 1: per-row word windows and offsets. A listener's rows are final
	// once its list is done, so the window ends need only a per-channel
	// buffer, its offsets are laid down at once, and the budget check can
	// stop at the first listener that passes it.
	total := 0
	off[0] = 0
	for u, list := range cands {
		base := u * channels
		for c := 0; c < channels; c++ {
			lo[base+c] = int32(n >> 6) // at or past every candidate word; hi < lo marks empty
			hi[c] = -1
		}
		for _, cand := range list {
			vw := int32(int(cand.From) >> 6)
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
			if hi[c] >= lo[r] {
				total += int(hi[c]-lo[r]) + 1
			} else {
				lo[r] = 0
			}
			off[r+1] = int32(total)
		}
		if budgetWords > 0 && total > budgetWords {
			return false
		}
	}

	// Pass 2: fill the packed rows.
	m.words = resize(m.words, total)
	words := m.words
	clear(words)
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
	return true
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
