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
// and leave the table unchanged.
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
			own := randomSet(r, 8)
			extra := []topology.NodeID{-1, 1<<15 - 1, 1 << 15, 1<<31 - 1}
			for op := 0; op < 300; op++ {
				v := ids[r.IntN(len(ids))]
				set := randomSet(r, 8)
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

// randomSet draws a non-empty channel set over [0, universe).
func randomSet(r *rng.Source, universe int) channel.Set {
	var s channel.Set
	for s.IsEmpty() {
		for c := 0; c < universe; c++ {
			if r.Bernoulli(0.4) {
				s.Add(channel.ID(c))
			}
		}
	}
	return s
}

// TestNeighborTableSparseSelection pins the layout's sizing: storage is
// allocated at the first discovery — never by Reserve alone — at exactly
// the hinted capacity (the minimum capacity without a hint), doubles past
// it, and never depends on how large the recorded IDs are.
func TestNeighborTableSparseSelection(t *testing.T) {
	set := channel.NewSet(0, 1)

	lazy := NewNeighborTable()
	lazy.Reserve(1_000_000)
	if cap(lazy.entries) != 0 || len(lazy.idx) != 0 {
		t.Fatalf("Reserve allocated eagerly (cap %d)", cap(lazy.entries))
	}

	hinted := NewNeighborTable()
	hinted.Reserve(5)
	for i := 0; i < 5; i++ {
		hinted.RecordIntersect(topology.NodeID(i*977_000), set, set)
		if cap(hinted.entries) != 5 {
			t.Fatalf("after %d discoveries: cap %d, want the hint 5", i+1, cap(hinted.entries))
		}
	}
	hinted.Record(1<<40, set)
	if cap(hinted.entries) != 10 || hinted.Len() != 6 || !hinted.Has(1<<40) {
		t.Fatalf("past the hint: cap %d len %d, want a doubling to 10 holding 6", cap(hinted.entries), hinted.Len())
	}
	if len(hinted.idx) < 2*cap(hinted.entries) {
		t.Fatalf("index %d slots for capacity %d: above half full", len(hinted.idx), cap(hinted.entries))
	}

	far := NewNeighborTable()
	far.Record(1<<15+5, set)
	if cap(far.entries) != minNeighborCap || !far.Has(1<<15+5) {
		t.Fatalf("unhinted far-ID table: cap %d, want %d", cap(far.entries), minNeighborCap)
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
// reserved for exactly d discoveries: the table, its one sized entry
// array and index, and one word slice per discovered common set — never a
// growth cascade. Reading the neighbors back into a reused buffer then
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
	if ceiling := float64(3 + d); allocs > ceiling {
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
