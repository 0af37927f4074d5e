package metrics

// Property tests for the CSR coverage backing on large-ID sorted targets
// (Network.DiscoverableLinks order): identical operation streams through
// the Coverage and the map oracle must agree, including across the
// migration an out-of-target AddTarget forces, and a TargetIndex shared by
// several coverages is never written.

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// bigID is a node ID well past any small-network range.
const bigID = 1 << 12

// sortedBigLinks draws a random strictly-ascending (From, To) link set with
// IDs past bigID.
func sortedBigLinks(r *rng.Source) []topology.Link {
	span := bigID * 4
	n := r.IntN(30) + 2
	seen := make(map[topology.Link]bool, n)
	var links []topology.Link
	for len(links) < n {
		l := topology.Link{
			From: topology.NodeID(r.IntN(span)),
			To:   topology.NodeID(r.IntN(span)),
		}
		if !seen[l] {
			seen[l] = true
			links = append(links, l)
		}
	}
	// Force at least one ID past bigID.
	links[0].From = topology.NodeID(bigID + r.IntN(span))
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	out := links[:1]
	for _, l := range links[1:] {
		if l != out[len(out)-1] {
			out = append(out, l)
		}
	}
	return out
}

// TestCoverageCSRMapEquivalence drives identical random operation streams
// through a CSR-backed Coverage and the map oracle and requires every
// observable to agree after every operation, including across the
// migration a novel AddTarget forces on the CSR side.
func TestCoverageCSRMapEquivalence(t *testing.T) {
	root := rng.New(20260814)
	for trial := 0; trial < 50; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			links := sortedBigLinks(r)
			csr := NewCoverage(links)
			if csr.index == nil {
				t.Fatal("constructor did not pick the CSR backing")
			}
			mapped := newCoverageOracle(links)

			probe := append([]topology.Link(nil), links...)
			probe = append(probe,
				topology.Link{From: -1, To: 0},
				topology.Link{From: links[len(links)-1].From + 7, To: 0},
			)
			randomLink := func() topology.Link {
				if r.Bernoulli(0.7) {
					return links[r.IntN(len(links))]
				}
				return topology.Link{
					From: topology.NodeID(r.IntN(bigID * 5)),
					To:   topology.NodeID(r.IntN(bigID * 5)),
				}
			}

			ops := r.IntN(60) + 20
			for op := 0; op < ops; op++ {
				at := float64(op)
				if r.Bernoulli(0.1) {
					// Re-adding an existing target link must be a no-op that
					// does NOT migrate the CSR side.
					l := links[r.IntN(len(links))]
					a := csr.AddTarget(l, at)
					b := mapped.AddTarget(l, at)
					if a || b {
						t.Fatalf("op %d: re-AddTarget(%v) %v/%v", op, l, a, b)
					}
					if csr.index == nil {
						t.Fatalf("op %d: re-AddTarget migrated the CSR backing", op)
					}
				} else {
					l := randomLink()
					a := csr.Observe(l, at)
					b := mapped.Observe(l, at)
					if a != b {
						t.Fatalf("op %d: Observe(%v) %v vs %v", op, l, a, b)
					}
				}
				compareCoverage(t, fmt.Sprintf("op %d", op), csr, mapped, probe)
			}

			// A link outside the fixed target migrates the CSR side; the map
			// side just grows. Equivalence must survive the transition.
			novel := topology.Link{From: links[len(links)-1].From + 11, To: 3}
			if a, b := csr.AddTarget(novel, 2.5), mapped.AddTarget(novel, 2.5); a != b {
				t.Fatalf("novel AddTarget %v vs %v", a, b)
			}
			if csr.index != nil {
				t.Fatal("novel AddTarget did not migrate the CSR backing")
			}
			probe = append(probe, novel)
			compareCoverage(t, "post-migrate", csr, mapped, probe)
			for op := 0; op < 10; op++ {
				l := randomLink()
				if r.Bernoulli(0.3) {
					l = novel
				}
				a := csr.Observe(l, 1000+float64(op))
				b := mapped.Observe(l, 1000+float64(op))
				if a != b {
					t.Fatalf("post-migrate op %d: Observe(%v) %v vs %v", op, l, a, b)
				}
				compareCoverage(t, fmt.Sprintf("post-migrate op %d", op), csr, mapped, probe)
			}
		})
	}
}

// TestCoverageCSRSelection pins the CSR index's construction: sorted
// input is indexed as is, unsorted or duplicated input on a sorted
// deduplicated copy, negative IDs fall back to maps, and the row table is
// sized by From IDs, not quadratically.
func TestCoverageCSRSelection(t *testing.T) {
	big := topology.NodeID(bigID + 1)
	if c := NewCoverage([]topology.Link{{From: big, To: 0}, {From: big, To: 2}}); c.index == nil {
		t.Error("sorted large-ID target did not choose the CSR backing")
	}
	if c := NewCoverage([]topology.Link{{From: big, To: 2}, {From: big, To: 0}}); c.index == nil || c.TargetSize() != 2 {
		t.Error("unsorted target was not indexed")
	}
	if c := NewCoverage([]topology.Link{{From: big, To: 2}, {From: big, To: 2}}); c.index == nil || c.TargetSize() != 1 {
		t.Error("duplicated target was not deduplicated")
	}
	if c := NewCoverage([]topology.Link{{From: big, To: -2}}); c.index != nil {
		t.Error("negative-ID target chose the CSR backing")
	}
	far := topology.NodeID(1 << 20)
	x := NewTargetIndex([]topology.Link{{From: far, To: 1}, {From: far, To: 2}})
	if x == nil || len(x.off) != int(far)+2 || len(x.to) != 2 {
		t.Fatalf("CSR sizes for a huge-ID target: %+v", x)
	}
}

// TestCoverageCSRObserveAllocs pins the per-delivery hot path: observing
// target links on the CSR backing allocates nothing.
func TestCoverageCSRObserveAllocs(t *testing.T) {
	links := []topology.Link{
		{From: bigID + 1, To: 4},
		{From: bigID + 1, To: 9},
		{From: bigID + 3, To: 4},
	}
	c := NewCoverage(links)
	if c.index == nil {
		t.Fatal("target did not choose the CSR backing")
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, l := range links {
			c.Observe(l, 1)
		}
	})
	if allocs != 0 {
		t.Errorf("CSR Observe allocated %.1f objects per sweep", allocs)
	}
}

// TestTargetIndexShared pins the sharing contract: coverages built on one
// index keep independent state, a migration of one leaves the index and
// the others untouched, and a run's Coverage allocates only its own
// first-coverage times and covered bitmap.
func TestTargetIndexShared(t *testing.T) {
	links := []topology.Link{{From: 0, To: 1}, {From: 1, To: 0}, {From: 1, To: 2}, {From: 2, To: 1}}
	x := NewTargetIndex(links)
	off, to := slices.Clone(x.off), slices.Clone(x.to)
	a, b := NewCoverageOn(x), NewCoverageOn(x)
	a.Observe(links[0], 3)
	b.Observe(links[1], 5)
	a.AddTarget(topology.Link{From: 7, To: 0}, 9) // migrates a only
	if a.index != nil || b.index != x {
		t.Fatal("migration reached the other coverage")
	}
	if !slices.Equal(off, x.off) || !slices.Equal(to, x.to) {
		t.Fatal("the shared index was written")
	}
	if at, ok := b.FirstCovered(links[1]); !ok || at != 5 || b.Remaining() != 3 {
		t.Fatalf("b: FirstCovered %v %v, remaining %d", at, ok, b.Remaining())
	}
	if _, ok := b.FirstCovered(links[0]); ok {
		t.Fatal("a's observation leaked into b")
	}
	if allocs := testing.AllocsPerRun(50, func() { _ = NewCoverageOn(x) }); allocs > 3 {
		t.Errorf("NewCoverageOn allocated %.0f objects, want at most 3 (the Coverage, its times, its bitmap)", allocs)
	}
}
