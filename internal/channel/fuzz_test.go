package channel

import (
	"testing"

	"m2hew/internal/rng"
)

// FuzzParseSet checks that ParseSet never panics and that accepted inputs
// round-trip through String.
func FuzzParseSet(f *testing.F) {
	for _, seed := range []string{"{}", "{1,2,3}", "1,2", "{ 5 , 64 }", "{-1}", "{a}", "", "{999999}"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSet(text)
		if err != nil {
			return // rejected inputs just must not panic
		}
		round, err := ParseSet(s.String())
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v", s.String(), err)
		}
		if !round.Equal(s) {
			t.Fatalf("round trip changed set: %v -> %v", s, round)
		}
	})
}

// FuzzSetOps checks algebra invariants on arbitrary bit patterns.
func FuzzSetOps(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(0xff), uint64(0xf0))
	f.Add(^uint64(0), uint64(1))
	f.Fuzz(func(t *testing.T, am, bm uint64) {
		var a, b Set
		for c := 0; c < 64; c++ {
			if am&(1<<c) != 0 {
				a.Add(ID(c))
			}
			if bm&(1<<c) != 0 {
				b.Add(ID(c))
			}
		}
		inter := a.Intersect(b)
		union := a.Union(b)
		if a.Size()+b.Size() != union.Size()+inter.Size() {
			t.Fatal("inclusion-exclusion violated")
		}
		if !a.Minus(b).Union(inter).Equal(a) {
			t.Fatal("partition identity violated")
		}
		if a.Intersects(b) != !inter.IsEmpty() {
			t.Fatal("Intersects inconsistent with Intersect")
		}
	})
}

// padded returns a set equal to s whose backing words carry extra trailing
// zero words — the representations Remove, growWords capacity reuse and the
// min-length *Into operations produce naturally (see the Set trailing-word
// invariant). pad selects how many zero words to append.
func padded(s Set, pad int) Set {
	words := make([]uint64, len(s.words)+pad)
	copy(words, s.words)
	return Set{words: words}
}

// mustEqualSets fails when two sets that must be equal are not, under every
// equality the API offers.
func mustEqualSets(t *testing.T, label string, a, b Set) {
	t.Helper()
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("%s: results differ: %v vs %v", label, a, b)
	}
}

// FuzzSetPaddedEquivalence pins the trailing-word invariant across the
// whole Set API and the raw-word kernels: a padded twin (same set, longer
// backing array ending in zero words) must be indistinguishable from the
// canonical representation under every predicate, every operation, every
// derived value, and every rng draw.
func FuzzSetPaddedEquivalence(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint8(1), uint8(0))
	f.Add(uint64(0xff), uint64(0xf0), uint64(1), uint8(2), uint8(1))
	f.Add(^uint64(0), uint64(1), ^uint64(0), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, am, bm, wm uint64, padA, padB uint8) {
		var a, b, w Set
		for c := 0; c < 64; c++ {
			if am&(1<<c) != 0 {
				a.Add(ID(c))
			}
			if bm&(1<<c) != 0 {
				b.Add(ID(c))
			}
			if wm&(1<<c) != 0 {
				w.Add(ID(c))
			}
		}
		pa := padded(a, int(padA%4)+1)
		pb := padded(b, int(padB%4))

		// Predicates.
		for c := ID(0); c < 130; c++ {
			if a.Contains(c) != pa.Contains(c) {
				t.Fatalf("Contains(%d) diverges under padding", c)
			}
		}
		if a.Size() != pa.Size() || a.IsEmpty() != pa.IsEmpty() {
			t.Fatal("Size/IsEmpty diverge under padding")
		}
		if !a.Equal(pa) || !pa.Equal(a) {
			t.Fatal("Equal rejects a padded twin")
		}
		if a.Equal(b) != pa.Equal(pb) {
			t.Fatal("Equal diverges under padding")
		}
		if a.SubsetOf(b) != pa.SubsetOf(pb) || a.SubsetOf(b) != pa.SubsetOf(b) || a.SubsetOf(b) != a.SubsetOf(pb) {
			t.Fatal("SubsetOf diverges under padding")
		}
		if a.Intersects(b) != pa.Intersects(pb) {
			t.Fatal("Intersects diverges under padding")
		}
		if a.IntersectionSubsetOf(b, w) != pa.IntersectionSubsetOf(pb, w) ||
			a.IntersectionSubsetOf(b, w) != pa.IntersectionSubsetOf(pb, padded(w, 2)) {
			t.Fatal("IntersectionSubsetOf diverges under padding")
		}

		// Operations: results must be the same set (their representations may
		// legitimately differ in length).
		mustEqualSets(t, "Intersect", a.Intersect(b), pa.Intersect(pb))
		mustEqualSets(t, "Union", a.Union(b), pa.Union(pb))
		mustEqualSets(t, "Minus", a.Minus(b), pa.Minus(pb))
		mustEqualSets(t, "Clone", a.Clone(), pa.Clone())
		mustEqualSets(t, "IntersectInto", a.IntersectInto(b, Set{}), pa.IntersectInto(pb, Set{}))
		mustEqualSets(t, "UnionInto", a.UnionInto(b, Set{}), pa.UnionInto(pb, Set{}))
		mustEqualSets(t, "CopyInto", a.CopyInto(Set{}), pa.CopyInto(Set{}))

		// Derived values.
		if a.String() != pa.String() {
			t.Fatalf("String diverges under padding: %q vs %q", a, pa)
		}
		ids, pids := a.IDs(), pa.IDs()
		if len(ids) != len(pids) {
			t.Fatal("IDs diverges under padding")
		}
		for i := range ids {
			if ids[i] != pids[i] {
				t.Fatal("IDs diverges under padding")
			}
		}
		m1, ok1 := a.Max()
		m2, ok2 := pa.Max()
		if m1 != m2 || ok1 != ok2 {
			t.Fatal("Max diverges under padding")
		}

		// Rng draws: Pick must consume identically and return the same
		// channel for the same seed.
		if !a.IsEmpty() {
			c1, err1 := a.Pick(rng.New(am ^ bm ^ 0x9e3779b9))
			c2, err2 := pa.Pick(rng.New(am ^ bm ^ 0x9e3779b9))
			if c1 != c2 || (err1 == nil) != (err2 == nil) {
				t.Fatal("Pick diverges under padding")
			}
		}

		// Raw-word kernels (words.go) see the padding directly.
		if OverlapCount(a.Words(), b.Words()) != OverlapCount(pa.Words(), pb.Words()) {
			t.Fatal("OverlapCount diverges under padding")
		}
		c1, f1 := OverlapResolve(a.Words(), b.Words())
		c2, f2 := OverlapResolve(pa.Words(), pb.Words())
		if c1 != c2 || f1 != f2 {
			t.Fatal("OverlapResolve diverges under padding")
		}
		mustEqualSets(t, "OrInto",
			Set{words: OrInto(append([]uint64{}, a.Words()...), b.Words())},
			Set{words: OrInto(append([]uint64{}, pa.Words()...), pb.Words())})
	})
}
