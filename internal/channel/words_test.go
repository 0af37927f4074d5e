package channel

import (
	"math/bits"
	"testing"

	"m2hew/internal/rng"
)

// randWords builds a random word slice with occasional trailing zero words,
// exercising the padded-representation tolerance of every kernel.
func randWords(r *rng.Source, maxLen int) []uint64 {
	n := r.IntN(maxLen + 1)
	w := make([]uint64, n)
	for i := range w {
		if r.Bernoulli(0.3) {
			continue // keep some words zero so overlaps are sparse
		}
		w[i] = r.Uint64()
	}
	if n > 0 && r.Bernoulli(0.4) {
		w[n-1] = 0 // explicit trailing zero word
	}
	return w
}

// naiveOverlap is the scalar reference: the sorted bit indexes of a ∧ b.
func naiveOverlap(a, b []uint64) []int {
	var out []int
	for i := 0; i < len(a) && i < len(b); i++ {
		w := a[i] & b[i]
		for w != 0 {
			out = append(out, i*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

func TestOverlapKernelsMatchNaive(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 2000; trial++ {
		a, b := randWords(r, 6), randWords(r, 6)
		want := naiveOverlap(a, b)

		if got := OverlapCount(a, b); got != len(want) {
			t.Fatalf("OverlapCount(%x,%x) = %d, want %d", a, b, got, len(want))
		}

		count, first := OverlapResolve(a, b)
		wantCount := len(want)
		if wantCount > 2 {
			wantCount = 2
		}
		wantFirst := -1
		if len(want) > 0 {
			wantFirst = want[0]
		}
		if count != wantCount || first != wantFirst {
			t.Fatalf("OverlapResolve(%x,%x) = (%d,%d), want (%d,%d)", a, b, count, first, wantCount, wantFirst)
		}
	}
}

func TestOverlapKernelsTolerateTrailingZeroWords(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 1000; trial++ {
		a, b := randWords(r, 4), randWords(r, 4)
		// Padded twins: same sets, extra zero words.
		pa := append(append([]uint64{}, a...), 0, 0)
		pb := append(append([]uint64{}, b...), 0)

		if OverlapCount(a, b) != OverlapCount(pa, pb) {
			t.Fatalf("OverlapCount diverges under padding: %x vs %x", a, b)
		}
		c1, f1 := OverlapResolve(a, b)
		c2, f2 := OverlapResolve(pa, pb)
		if c1 != c2 || f1 != f2 {
			t.Fatalf("OverlapResolve diverges under padding: (%d,%d) vs (%d,%d)", c1, f1, c2, f2)
		}
	}
}

func TestOrIntoAndSetBit(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 1000; trial++ {
		a, b := randWords(r, 5), randWords(r, 5)
		got := OrInto(append([]uint64{}, a...), b)
		n := len(a)
		if len(b) > n {
			n = len(b)
		}
		if len(got) != n {
			t.Fatalf("OrInto length %d, want %d", len(got), n)
		}
		for i := 0; i < n; i++ {
			var aw, bw uint64
			if i < len(a) {
				aw = a[i]
			}
			if i < len(b) {
				bw = b[i]
			}
			if got[i] != aw|bw {
				t.Fatalf("OrInto word %d = %x, want %x", i, got[i], aw|bw)
			}
		}
	}

	w := make([]uint64, 3)
	for _, i := range []int{0, 63, 64, 130, 191} {
		SetBit(w, i)
		if w[i>>6]&(1<<(uint(i)&63)) == 0 {
			t.Fatalf("SetBit(%d) did not set the bit", i)
		}
	}
}

// TestOrIntoReusesCapacity pins the grow-once contract: a dst with spare
// capacity is extended in place and the extension is zeroed before OR-ing.
func TestOrIntoReusesCapacity(t *testing.T) {
	backing := []uint64{1, 0xdead, 0xbeef}
	dst := backing[:1]
	src := []uint64{2, 4, 8}
	got := OrInto(dst, src)
	if &got[0] != &backing[0] {
		t.Fatal("OrInto reallocated despite spare capacity")
	}
	want := []uint64{3, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d = %x, want %x (stale capacity leaked)", i, got[i], want[i])
		}
	}
}

// TestKernelsZeroAlloc guards the hot-path contract: no kernel allocates
// once destination buffers have grown to the working set.
func TestKernelsZeroAlloc(t *testing.T) {
	a := []uint64{0xf0f0, 0x1, 0, 0x8}
	b := []uint64{0x0ff0, 0x3}
	dst := make([]uint64, 4)
	var sinkInt int
	allocs := testing.AllocsPerRun(100, func() {
		sinkInt += OverlapCount(a, b)
		c, f := OverlapResolve(a, b)
		sinkInt += c + f
		dst = OrInto(dst, b)
		SetBit(dst, 100)
	})
	if allocs != 0 {
		t.Errorf("kernels allocated %.0f objects per run", allocs)
	}
	_ = sinkInt
}

func TestSetWordsSharedStorage(t *testing.T) {
	s := NewSet(1, 64, 130)
	w := s.Words()
	if len(w) != 3 {
		t.Fatalf("Words length %d, want 3", len(w))
	}
	if w[0] != 1<<1 || w[1] != 1 || w[2] != 1<<2 {
		t.Fatalf("Words content %x unexpected", w)
	}
	s.Add(2)
	if w[0] != 1<<1|1<<2 {
		t.Fatal("Words is not shared storage")
	}
	s.Remove(130)
	if got := s.Words(); len(got) != 3 || got[2] != 0 {
		t.Fatal("Remove should leave a trailing zero word in place")
	}
}

// BenchmarkOverlapResolve measures the slot resolver's innermost kernel at
// the 200-node scenario's mask width (4 words).
func BenchmarkOverlapResolve(b *testing.B) {
	r := rng.New(5)
	const words = 4
	mask := make([]uint64, words)
	tx := make([]uint64, words)
	for i := range mask {
		mask[i] = r.Uint64() & r.Uint64() & r.Uint64() // sparse candidates
		tx[i] = r.Uint64() & r.Uint64()
	}
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count, first := OverlapResolve(mask, tx)
		sink += count + first
	}
	_ = sink
}

// BenchmarkOrInto measures the word-OR accumulation pass that builds
// per-channel transmitter masks.
func BenchmarkOrInto(b *testing.B) {
	r := rng.New(6)
	const words = 4
	dst := make([]uint64, words)
	src := make([]uint64, words)
	for i := range src {
		src[i] = r.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OrInto(dst, src)
	}
}
