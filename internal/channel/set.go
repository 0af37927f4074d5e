// Package channel models wireless channels and channel sets for M²HeW
// networks.
//
// A channel is a small non-negative integer index into the universal channel
// set of a scenario (the collective set of all channels any radio in the
// network can operate over). The central type is Set, a dense bitset: the
// available channel sets A(u) of the paper, link spans span(u,v), and message
// payloads are all Sets. The representation is compact (one word per 64
// channels), supports the algebra the discovery algorithms need (membership,
// intersection, uniform random pick), and is cheap to copy into simulated
// messages.
package channel

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"m2hew/internal/rng"
)

// ID identifies a channel as an index into the universal channel set.
type ID int

// Set is a set of channel IDs backed by a bitset. The zero value is the
// empty set, ready to use.
//
// Trailing-word invariant: a Set's backing words may end in any number of
// zero words, so two representations of the same set can have different
// lengths — Remove leaves the cleared word in place, growWords reuses
// spare capacity, and the *Into operations size results by operand length,
// not content. Every operation, and every raw-word kernel in words.go,
// must treat a missing word and a zero word identically; the fuzz suite
// pins padded and canonical twins to equal behaviour across the whole API.
type Set struct {
	words []uint64
}

// NewSet returns a set containing the given channels.
func NewSet(channels ...ID) Set {
	var s Set
	for _, c := range channels {
		s.Add(c)
	}
	return s
}

// ArenaSet returns an empty set backed by buf, for carving many sets out of
// one []uint64 arena instead of allocating each: used as the dst of an
// *Into operation (IntersectInto, CopyInto, UnionInto) it receives the
// result in buf's storage, allocating only if cap(buf) is too small. The
// set shares storage with buf, so pass a full slice expression
// (arena[i:j:j]) to keep a later grow from writing into the next set's
// words. Table builders hand such sets out read-only.
func ArenaSet(buf []uint64) Set { return Set{words: buf[:0]} }

// Range returns the set {0, 1, ..., n-1}, the canonical universal set of
// size n. It returns an empty set for n <= 0.
func Range(n int) Set {
	var s Set
	for c := 0; c < n; c++ {
		s.Add(ID(c))
	}
	return s
}

// Add inserts channel c. Negative IDs are rejected with a panic because they
// indicate a construction bug, never a data condition.
//
//nd:hotpath
func (s *Set) Add(c ID) {
	if c < 0 {
		panic(fmt.Sprintf("channel: Add(%d): negative channel id", c))
	}
	w := int(c) / 64
	if w >= len(s.words) {
		s.words = growWords(s.words, w+1)
	}
	s.words[w] |= 1 << (uint(c) % 64)
}

// growWords extends words to length n (n > len(words)), reusing capacity when
// available and growing once — never one element per append — otherwise. The
// extension is always zeroed: reused capacity may hold stale words from a
// previous, larger use of the same backing array.
func growWords(words []uint64, n int) []uint64 {
	if cap(words) >= n {
		ext := words[:n]
		for i := len(words); i < n; i++ {
			ext[i] = 0
		}
		return ext
	}
	grown := make([]uint64, n)
	copy(grown, words)
	return grown
}

// Remove deletes channel c if present.
func (s *Set) Remove(c ID) {
	if c < 0 {
		return
	}
	w := int(c) / 64
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(c) % 64)
	}
}

// Contains reports whether channel c is in the set.
//
//nd:hotpath
func (s Set) Contains(c ID) bool {
	if c < 0 {
		return false
	}
	w := int(c) / 64
	return w < len(s.words) && s.words[w]&(1<<(uint(c)%64)) != 0
}

// Size returns |s|.
func (s Set) Size() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no channels.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s. Sets share no storage afterwards,
// which matters because simulated messages carry channel sets across node
// boundaries.
func (s Set) Clone() Set {
	if len(s.words) == 0 {
		return Set{}
	}
	words := make([]uint64, len(s.words))
	copy(words, s.words)
	return Set{words: words}
}

// Intersect returns s ∩ t as a new set.
func (s Set) Intersect(t Set) Set {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	if n == 0 {
		return Set{}
	}
	words := make([]uint64, n)
	for i := 0; i < n; i++ {
		words[i] = s.words[i] & t.words[i]
	}
	return Set{words: words}
}

// Union returns s ∪ t as a new set.
func (s Set) Union(t Set) Set {
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	if len(long) == 0 {
		return Set{}
	}
	words := make([]uint64, len(long))
	copy(words, long)
	for i := range short {
		words[i] |= short[i]
	}
	return Set{words: words}
}

// Minus returns s \ t as a new set.
func (s Set) Minus(t Set) Set {
	if len(s.words) == 0 {
		return Set{}
	}
	words := make([]uint64, len(s.words))
	copy(words, s.words)
	for i := range words {
		if i < len(t.words) {
			words[i] &^= t.words[i]
		}
	}
	return Set{words: words}
}

// Equal reports whether s and t contain exactly the same channels.
func (s Set) Equal(t Set) bool {
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i := range short {
		if long[i] != short[i] {
			return false
		}
	}
	for i := len(short); i < len(long); i++ {
		if long[i] != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every channel of s is in t.
//
//nd:hotpath
func (s Set) SubsetOf(t Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// IntersectionSubsetOf reports whether s ∩ t ⊆ w without materializing the
// intersection. It lets receive paths detect that an arriving payload adds
// nothing to already-recorded state without allocating per message.
//
//nd:hotpath
func (s Set) IntersectionSubsetOf(t, w Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		var ww uint64
		if i < len(w.words) {
			ww = w.words[i]
		}
		if s.words[i]&t.words[i]&^ww != 0 {
			return false
		}
	}
	return true
}

// IntersectInto returns s ∩ t, storing the result in dst's backing array —
// an in-place Intersect for receive paths that must not allocate at steady
// state. The backing array is grown once if too small; dst may alias s or t
// (every word is written exactly once, element-wise). Use as with append:
//
//	buf = a.IntersectInto(b, buf)
//
//nd:hotpath
func (s Set) IntersectInto(t, dst Set) Set {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	words := dst.words
	if cap(words) < n {
		words = make([]uint64, n)
	}
	words = words[:n]
	for i := 0; i < n; i++ {
		words[i] = s.words[i] & t.words[i]
	}
	return Set{words: words}
}

// UnionInto returns s ∪ t, storing the result in dst's backing array (grown
// once if too small). dst may alias s or t. Use as with append:
//
//	buf = a.UnionInto(b, buf)
//
//nd:hotpath
func (s Set) UnionInto(t, dst Set) Set {
	n := len(s.words)
	if len(t.words) > n {
		n = len(t.words)
	}
	words := dst.words
	if cap(words) < n {
		words = make([]uint64, n)
	}
	words = words[:n]
	for i := range words {
		var sw, tw uint64
		if i < len(s.words) {
			sw = s.words[i]
		}
		if i < len(t.words) {
			tw = t.words[i]
		}
		words[i] = sw | tw
	}
	return Set{words: words}
}

// CopyInto returns a copy of s stored in dst's backing array (grown once if
// too small) — Clone without the per-call allocation. Use as with append:
//
//	buf = s.CopyInto(buf)
//
//nd:hotpath
func (s Set) CopyInto(dst Set) Set {
	words := dst.words
	if cap(words) < len(s.words) {
		words = make([]uint64, len(s.words))
	}
	words = words[:len(s.words)]
	copy(words, s.words)
	return Set{words: words}
}

// Intersects reports whether s ∩ t is non-empty without allocating.
//
//nd:hotpath
func (s Set) Intersects(t Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// IDs returns the channels in ascending order.
func (s Set) IDs() []ID {
	ids := make([]ID, 0, s.Size())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			ids = append(ids, ID(wi*64+b))
			w &= w - 1
		}
	}
	return ids
}

// Max returns the largest channel ID in the set and true, or 0 and false if
// the set is empty.
func (s Set) Max() (ID, bool) {
	for wi := len(s.words) - 1; wi >= 0; wi-- {
		if w := s.words[wi]; w != 0 {
			return ID(wi*64 + 63 - bits.LeadingZeros64(w)), true
		}
	}
	return 0, false
}

// Pick returns a channel selected uniformly at random from the set, exactly
// the "channel selected uniformly at random from A(u)" step of every
// algorithm in the paper. It returns an error if the set is empty.
//
//nd:hotpath
func (s Set) Pick(r *rng.Source) (ID, error) {
	n := s.Size()
	if n == 0 {
		return 0, fmt.Errorf("channel: pick from empty set: %w", rng.ErrEmptyRange)
	}
	target := r.IntN(n)
	for wi, w := range s.words {
		c := bits.OnesCount64(w)
		if target >= c {
			target -= c
			continue
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if target == 0 {
				return ID(wi*64 + b), nil
			}
			target--
			w &= w - 1
		}
	}
	// Unreachable: Size() counted the bits we just walked.
	panic("channel: Pick walked past set end")
}

// String renders the set as "{0,3,7}".
func (s Set) String() string {
	ids := s.IDs()
	parts := make([]string, len(ids))
	for i, c := range ids {
		parts[i] = strconv.Itoa(int(c))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// MaxParsedID caps channel IDs accepted by ParseSet. Real spectra have at
// most a few hundred channels; the cap keeps a hostile input ("{1e18}")
// from forcing a gigantic bitset allocation.
const MaxParsedID = 1 << 20

// ParseSet parses the String format, accepting "{1,2,3}", "1,2,3" and "{}".
// Channel IDs must lie in [0, MaxParsedID].
func ParseSet(text string) (Set, error) {
	text = strings.TrimSpace(text)
	text = strings.TrimPrefix(text, "{")
	text = strings.TrimSuffix(text, "}")
	var s Set
	if text == "" {
		return s, nil
	}
	for _, part := range strings.Split(text, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return Set{}, fmt.Errorf("channel: parse set element %q: %w", part, err)
		}
		if v < 0 {
			return Set{}, fmt.Errorf("channel: parse set: negative channel %d", v)
		}
		if v > MaxParsedID {
			return Set{}, fmt.Errorf("channel: parse set: channel %d exceeds limit %d", v, MaxParsedID)
		}
		s.Add(ID(v))
	}
	return s, nil
}

// RandomSubset returns a uniformly random subset of universe with exactly k
// elements. It returns an error if k is negative or exceeds the universe
// size.
func RandomSubset(universe Set, k int, r *rng.Source) (Set, error) {
	ids := universe.IDs()
	if k < 0 || k > len(ids) {
		return Set{}, fmt.Errorf("channel: subset of size %d from universe of %d", k, len(ids))
	}
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	// No sort: NewSet is order-insensitive, so ordering the chosen IDs first
	// was dead work (and drew no randomness, so dropping it leaves the rng
	// stream — and therefore every seeded network — unchanged).
	return NewSet(ids[:k]...), nil
}
