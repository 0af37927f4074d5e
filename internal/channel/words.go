package channel

import "math/bits"

// Raw word-level bitset kernels.
//
// The simulation engines' channel-major slot resolver works directly on
// []uint64 bitset words — candidate masks packed by the topology layer and
// per-slot transmitter masks built by the engine — instead of Set values,
// so the inner loop is a handful of word operations per listener. Bit i of
// word w represents element 64*w + i (the same layout Set uses).
//
// Every kernel tolerates operands of different lengths by treating missing
// words as zero: this is the Set trailing-word invariant (see Set), so a
// padded and a canonical representation of the same bitset are always
// interchangeable as kernel operands.

// OverlapCount returns the population count of a ∧ b. Words past the
// shorter operand intersect to zero and contribute nothing.
//
//nd:hotpath
func OverlapCount(a, b []uint64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	count := 0
	for i := 0; i < n; i++ {
		count += bits.OnesCount64(a[i] & b[i])
	}
	return count
}

// OverlapResolve scans a ∧ b and returns (count, first): count is the
// number of common bits saturated at 2, and first is the bit index of the
// lowest common bit, or −1 when the intersection is empty. The saturation
// is exactly what slot resolution needs — 0 is silence, 1 is a clear
// reception from bit first, 2 means collision — so the scan stops at the
// second common bit instead of counting the rest.
//
//nd:hotpath
func OverlapResolve(a, b []uint64) (count, first int) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	first = -1
	for i := 0; i < n; i++ {
		w := a[i] & b[i]
		if w == 0 {
			continue
		}
		if first < 0 {
			first = i*64 + bits.TrailingZeros64(w)
			if w&(w-1) == 0 {
				count = 1
				continue // single bit in this word; a later word may collide
			}
		}
		return 2, first
	}
	if first < 0 {
		return 0, -1
	}
	return count, first
}

// OrInto ORs src into dst, growing dst (zero-extended) once when src is
// longer, and returns dst — the word-OR accumulation pass that merges
// partial transmitter masks (per-tile masks in the sharded engine inherit
// this). Use as with append:
//
//	mask = OrInto(mask, part)
//
//nd:hotpath
func OrInto(dst, src []uint64) []uint64 {
	if len(src) > len(dst) {
		dst = growWords(dst, len(src))
	}
	for i, w := range src {
		dst[i] |= w
	}
	return dst
}

// SetBit sets bit i (element i) in words. The caller guarantees the slice
// covers the element: i < 64*len(words). The engines size transmitter
// masks to the node-ID range once per run, so the hot path has no bounds
// to re-check beyond the slice's own.
//
//nd:hotpath
func SetBit(words []uint64, i int) {
	words[i>>6] |= 1 << (uint(i) & 63)
}

// Words exposes s's backing words for kernel use. Shared storage — the
// caller must not modify it — and it may carry trailing zero words (see
// the Set trailing-word invariant), which every kernel tolerates.
//
//nd:hotpath
func (s Set) Words() []uint64 { return s.words }

// FromWords views words as a Set, the write-side twin of Words: bit i of
// words[w] is channel 64·w+i. The set shares words' storage, so a caller
// that hands such a view out keeps it read-only and caps its capacity
// (words[i:j:j]) to keep an Add from growing into neighbouring storage.
//
//nd:hotpath
func FromWords(words []uint64) Set { return Set{words: words} }
