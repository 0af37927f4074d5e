package core

// Property tests for NeighborTable's degree-sized layout: random operation
// streams checked against a map oracle, storage sizing against the Reserve
// hint, and allocation ceilings. Several test names predate the single
// layout — they once compared a dense and a sparse backing — and are kept
// so their history stays traceable.

import (
	"fmt"
	"slices"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// tableOracle is the reference model: a plain map from neighbor to its
// recorded common set, unioned on re-record.
type tableOracle map[topology.NodeID]channel.Set

func (o tableOracle) record(v topology.NodeID, set channel.Set) {
	o[v] = o[v].Union(set)
}

// checkAgainstOracle pins every observable of tab to the oracle, probing
// the recorded IDs plus the given extra IDs.
func checkAgainstOracle(t *testing.T, step string, tab *NeighborTable, o tableOracle, extra []topology.NodeID) {
	t.Helper()
	if tab.Len() != len(o) {
		t.Fatalf("%s: Len %d, oracle %d", step, tab.Len(), len(o))
	}
	want := make([]topology.NodeID, 0, len(o))
	for v := range o {
		want = append(want, v)
	}
	slices.Sort(want)
	if got := tab.Neighbors(); !slices.Equal(got, want) {
		t.Fatalf("%s: Neighbors %v, oracle %v", step, got, want)
	}
	if got := tab.AppendNeighbors([]topology.NodeID{-7}); got[0] != -7 || !slices.Equal(got[1:], want) {
		t.Fatalf("%s: AppendNeighbors([-7]) %v, oracle [-7 %v]", step, got, want)
	}
	for _, v := range append(want, extra...) {
		oc, ook := o[v]
		if tab.Has(v) != ook {
			t.Fatalf("%s: Has(%d) %v, oracle %v", step, v, tab.Has(v), ook)
		}
		c, ok := tab.Common(v)
		if ok != ook || (ok && !c.Equal(oc)) {
			t.Fatalf("%s: Common(%d) (%v, %v), oracle (%v, %v)", step, v, c, ok, oc, ook)
		}
	}
}

// recordPanics reports whether recording v panics.
func recordPanics(tab *NeighborTable, v topology.NodeID, set channel.Set, intersect bool) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	if intersect {
		tab.RecordIntersect(v, set, set)
	} else {
		tab.Record(v, set)
	}
	return false
}

// TestNeighborTableSparseMatchesDense drives the table and a map oracle
// through identical random Record/RecordIntersect streams and pins every
// observable after every operation. The streams draw IDs both near zero
// and past 2¹⁵, reserve hints below, at and above the real discovery
// count (or none), and interleave negative-ID records, which must panic
// and leave the table unchanged. Channels reach past 64 and 128, some sets
// carry trailing zero words, and a stream may start narrow, so entries
// span one to three words, the stride widens while entries are live, and
// re-records that add channels take the union-extension path.
func TestNeighborTableSparseMatchesDense(t *testing.T) {
	root := rng.New(20260813)
	for trial := 0; trial < 30; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			ids := make([]topology.NodeID, 4+r.IntN(40))
			for i := range ids {
				if r.Bernoulli(0.5) {
					ids[i] = topology.NodeID(r.IntN(64))
				} else {
					ids[i] = topology.NodeID(1<<15 + r.IntN(1<<20))
				}
			}
			tab := NewNeighborTable()
			switch trial % 4 {
			case 1:
				tab.Reserve(1 + r.IntN(len(ids)/2)) // below the discovery count
			case 2:
				tab.Reserve(len(ids)) // at (or above, with repeats) it
			case 3:
				tab.Reserve(4 * len(ids)) // well above it
			}
			oracle := tableOracle{}
			own := randomSet(r, 192)
			extra := []topology.NodeID{-1, 1<<15 - 1, 1 << 15, 1<<31 - 1}
			for op := 0; op < 300; op++ {
				v := ids[r.IntN(len(ids))]
				// Widths grow over the stream, so early narrow entries are
				// carried through later stride widenings.
				set := randomSet(r, []int{8, 72, 136, 192}[min(op/50, r.IntN(4))])
				switch {
				case r.Bernoulli(0.05):
					if !recordPanics(tab, -1-topology.NodeID(r.IntN(5)), set, r.Bernoulli(0.5)) {
						t.Fatalf("op %d: negative id did not panic", op)
					}
				case r.Bernoulli(0.5):
					tab.Record(v, set)
					oracle.record(v, set)
				default:
					tab.RecordIntersect(v, set, own)
					oracle.record(v, set.Intersect(own))
				}
				checkAgainstOracle(t, fmt.Sprintf("op %d", op), tab, oracle, extra)
			}
		})
	}
}

// randomSet draws a non-empty channel set over [0, universe): each of the
// lowest eight channels with probability 0.4 and each higher one with
// probability 0.05, so multi-word sets stay sparse. One set in five is
// padded with a trailing zero word, a representation the table must not
// confuse with a wider set.
func randomSet(r *rng.Source, universe int) channel.Set {
	var s channel.Set
	for s.IsEmpty() {
		for c := 0; c < universe; c++ {
			p := 0.05
			if c < 8 {
				p = 0.4
			}
			if r.Bernoulli(p) {
				s.Add(channel.ID(c))
			}
		}
	}
	if r.Bernoulli(0.2) {
		pad := channel.ID(64 * len(s.Words()))
		s.Add(pad)
		s.Remove(pad)
	}
	return s
}

// slabSlots returns the table's slot count.
func slabSlots(tab *NeighborTable) int { return len(tab.slab) / (1 + tab.stride) }

// TestNeighborTableSparseSelection pins the slab's sizing: Reserve alone
// allocates nothing; the first discovery allocates room for exactly the
// hint (the smallest slab holding that many entries at most half full;
// minNeighborCap entries without a hint); the table never passes half
// full and doubles past the hint; sizing ignores how large the recorded
// IDs are; and a wider set recorded into a table that already has entries
// widens every slot's stride, keeping the slot count and the entries.
func TestNeighborTableSparseSelection(t *testing.T) {
	set := channel.NewSet(0, 1)

	lazy := NewNeighborTable()
	lazy.Reserve(1_000_000)
	if lazy.slab != nil {
		t.Fatalf("Reserve allocated eagerly (%d words)", len(lazy.slab))
	}

	for _, hint := range []int{1, 2, 5, 8, 9, 100} {
		tab := NewNeighborTable()
		tab.Reserve(hint)
		tab.RecordIntersect(7, set, set)
		if s := slabSlots(tab); s < 2*hint || s/2 >= 2*hint && s > 2 {
			t.Errorf("hint %d: first discovery allocated %d slots, want the least power of two ≥ %d", hint, s, 2*hint)
		}
		if tab.stride != 1 || len(tab.slab) != slabSlots(tab)*2 {
			t.Errorf("hint %d: stride %d, slab %d words", hint, tab.stride, len(tab.slab))
		}
	}

	hinted := NewNeighborTable()
	hinted.Reserve(5)
	for i := 0; i < 8; i++ {
		hinted.RecordIntersect(topology.NodeID(i*977_000), set, set)
		if s := slabSlots(hinted); s != 16 {
			t.Fatalf("after %d discoveries: %d slots, want the hint's 16", i+1, s)
		}
	}
	hinted.Record(1<<30, set)
	if s := slabSlots(hinted); s != 32 || hinted.Len() != 9 || !hinted.Has(1<<30) {
		t.Fatalf("past half full: %d slots len %d, want a doubling to 32 holding 9", s, hinted.Len())
	}
	for i := 0; i < 100; i++ {
		hinted.Record(topology.NodeID(1+i*31), set)
		if 2*hinted.Len() > slabSlots(hinted) {
			t.Fatalf("%d entries in %d slots: above half full", hinted.Len(), slabSlots(hinted))
		}
	}

	near, far := NewNeighborTable(), NewNeighborTable()
	for i := 0; i < minNeighborCap; i++ {
		near.Record(topology.NodeID(i), set)
		far.Record(topology.NodeID(1<<29+i*1_000_003), set)
	}
	if len(near.slab) != len(far.slab) || slabSlots(far) != slotsFor(minNeighborCap) {
		t.Fatalf("unhinted tables: %d words near zero, %d words for far IDs, want %d slots each",
			len(near.slab), len(far.slab), slotsFor(minNeighborCap))
	}

	wide := channel.NewSet(3, 70, 130)
	slots := slabSlots(far)
	far.RecordIntersect(1<<29, wide, wide) // existing entry, wider set
	if far.stride != 3 || slabSlots(far) != slots || far.Len() != minNeighborCap {
		t.Fatalf("widening: stride %d, %d slots, len %d; want 3, %d, %d", far.stride, slabSlots(far), far.Len(), slots, minNeighborCap)
	}
	for i := 0; i < minNeighborCap; i++ {
		v := topology.NodeID(1<<29 + i*1_000_003)
		want := set
		if i == 0 {
			want = set.Union(wide)
		}
		if c, ok := far.Common(v); !ok || !c.Equal(want) {
			t.Fatalf("after widening: Common(%d) = %v, %v; want %v", v, c, ok, want)
		}
	}
}

// TestNeighborTableCommonView pins Common's contract: the set is a view
// into the table's storage, so reading it allocates nothing; its capacity
// is capped at its own slot, so growing it never writes into a
// neighbouring entry; it stays correct until the table's next write, and a
// Clone taken before a write that rehashes keeps its channels. The table
// never aliases the sets it is given.
func TestNeighborTableCommonView(t *testing.T) {
	tab := NewNeighborTable()
	for v := topology.NodeID(0); v < 6; v++ {
		tab.Record(v, channel.NewSet(channel.ID(v), 64+channel.ID(v)))
	}
	if allocs := testing.AllocsPerRun(100, func() { tab.Common(3) }); allocs != 0 {
		t.Errorf("Common allocated %.1f/op", allocs)
	}
	for v := topology.NodeID(0); v < 6; v++ {
		c, _ := tab.Common(v)
		if w := c.Words(); cap(w) != len(w) || len(w) != tab.stride {
			t.Fatalf("Common(%d): %d words, capacity %d, stride %d", v, len(w), cap(w), tab.stride)
		}
		c.Add(200) // past the slot: must reallocate, not spill
	}
	for v := topology.NodeID(0); v < 6; v++ {
		if c, _ := tab.Common(v); !c.Equal(channel.NewSet(channel.ID(v), 64+channel.ID(v))) {
			t.Fatalf("growing a view changed Common(%d) to %v", v, c)
		}
	}

	view, _ := tab.Common(2)
	kept := view.Clone()
	src := channel.NewSet(2, 140)
	tab.Record(2, src) // widens the stride: rehashes the slab
	src.Add(5)
	if !kept.Equal(channel.NewSet(2, 66)) {
		t.Fatalf("clone taken before a write = %v", kept)
	}
	if c, _ := tab.Common(2); !c.Equal(channel.NewSet(2, 66, 140)) {
		t.Fatalf("after the write: Common(2) = %v, want {2,66,140}", c)
	}
}

// TestNeighborTableSparseSteadyStateAllocs is the wide-ID twin of the
// steady-state guard: re-recording known neighbors with subset payloads —
// every repeat delivery in the paper's model — must not allocate, with IDs
// spread far past 2¹⁵.
func TestNeighborTableSparseSteadyStateAllocs(t *testing.T) {
	tab := NewNeighborTable()
	tab.Reserve(64)
	own := channel.NewSet(0, 2, 4, 6)
	for i := 0; i < 64; i++ {
		tab.RecordIntersect(topology.NodeID(i*1013), own, own)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			tab.RecordIntersect(topology.NodeID(i*1013), own, own)
		}
	})
	if allocs != 0 {
		t.Errorf("re-record allocated %.1f objects per sweep", allocs)
	}
}

// TestNeighborTableReservedAllocs pins the allocation ceiling of a table
// reserved for exactly d discoveries: the table and its one sized slab,
// with every common set stored inline — never a growth cascade or a
// per-entry allocation. Reading the neighbors back into a reused buffer then
// allocates nothing.
func TestNeighborTableReservedAllocs(t *testing.T) {
	const d = 12
	own := channel.NewSet(1, 3, 5)
	allocs := testing.AllocsPerRun(50, func() {
		tab := NewNeighborTable()
		tab.Reserve(d)
		for i := 0; i < d; i++ {
			tab.RecordIntersect(topology.NodeID(d-i)*40_000, own, own)
		}
	})
	if ceiling := 2.0; allocs > ceiling {
		t.Errorf("reserved table of %d discoveries: %.1f allocs, ceiling %.0f", d, allocs, ceiling)
	}

	tab := NewNeighborTable()
	tab.Reserve(d)
	for i := 0; i < d; i++ {
		tab.RecordIntersect(topology.NodeID(d-i), own, own)
	}
	buf := make([]topology.NodeID, 0, d)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = tab.AppendNeighbors(buf[:0])
	}); allocs != 0 {
		t.Errorf("AppendNeighbors into a reused buffer allocated %.1f/op", allocs)
	}
	if !slices.IsSorted(buf) || len(buf) != d {
		t.Errorf("AppendNeighbors = %v, want %d ascending IDs", buf, d)
	}
}
