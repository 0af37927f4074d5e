package metrics

// Property tests for Coverage on large-ID sorted targets
// (Network.DiscoverableLinks order): identical operation streams through
// the Coverage and the map oracle must agree on static and growing targets
// and after growth past the index, and a TargetIndex shared by several
// coverages, concurrently too, is never written.

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"m2hew/internal/channel"
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
// through a Coverage on a large-ID sorted target and the map oracle and
// requires every observable to agree after every operation. Even trials
// build a static target, odd ones an empty growing target over the same
// index; both then grow past the index into the tail.
func TestCoverageCSRMapEquivalence(t *testing.T) {
	root := rng.New(20260814)
	for trial := 0; trial < 50; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			links := sortedBigLinks(r)
			o := newCoverageOps(t, r, 2*(trial%2), links)
			o.probe = append(o.probe,
				topology.Link{From: -1, To: 0},
				topology.Link{From: links[len(links)-1].From + 7, To: 0},
			)
			initial := func() topology.Link { return links[r.IntN(len(links))] }
			randomLink := func() topology.Link {
				if r.Bernoulli(0.7) {
					return initial()
				}
				return topology.Link{
					From: topology.NodeID(r.IntN(bigID * 5)),
					To:   topology.NodeID(r.IntN(bigID * 5)),
				}
			}
			o.run("initial", r.IntN(60)+20, 0, 0.1, initial, randomLink)

			// A link outside the index takes the first tail position.
			novel := topology.Link{From: links[len(links)-1].From + 11, To: 3}
			withNovel := func() topology.Link {
				if r.Bernoulli(0.3) {
					return novel
				}
				return randomLink()
			}
			o.run("grown", 20, 1000, 0.2, withNovel, withNovel)
		})
	}
}

// TestCoverageCSRSelection pins the CSR index's construction: input in
// any order is indexed, duplicated input on a deduplicated copy, negative
// IDs go to the tail, and the row table is sized by To IDs (one row per
// listener), not quadratically.
func TestCoverageCSRSelection(t *testing.T) {
	big := topology.NodeID(bigID + 1)
	if c := NewCoverage([]topology.Link{{From: big, To: 0}, {From: big, To: 2}}); c.index.Len() != 2 || len(c.tail) != 0 {
		t.Error("sorted large-ID target was not indexed")
	}
	if c := NewCoverage([]topology.Link{{From: big, To: 2}, {From: big, To: 0}}); c.index.Len() != 2 || c.TargetSize() != 2 {
		t.Error("unsorted target was not indexed")
	}
	if c := NewCoverage([]topology.Link{{From: big, To: 2}, {From: big, To: 2}}); c.index.Len() != 1 || c.TargetSize() != 1 {
		t.Error("duplicated target was not deduplicated")
	}
	if c := NewCoverage([]topology.Link{{From: big, To: -2}}); c.index.Len() != 0 || len(c.tail) != 1 {
		t.Error("negative-ID target was not put in the tail")
	}
	far := topology.NodeID(1 << 20)
	x := NewTargetIndex([]topology.Link{{From: 1, To: far}, {From: 2, To: far}})
	if x == nil || len(x.off) != int(far)+2 || len(x.from) != 2 {
		t.Fatalf("CSR sizes for a huge-ID target: %+v", x)
	}
	if y := NewTargetIndex([]topology.Link{{From: far, To: 1}, {From: far, To: 2}}); y == nil || len(y.off) != 4 || len(y.from) != 2 {
		t.Fatalf("CSR sizes for a huge-sender target: %+v", y)
	}
}

// TestCoverageCSRObserveAllocs pins the per-delivery hot path: observing
// target links allocates nothing, on a static target and on a growing one
// whose links sit in the index and in the tail.
func TestCoverageCSRObserveAllocs(t *testing.T) {
	links := []topology.Link{
		{From: bigID + 1, To: 4},
		{From: bigID + 1, To: 9},
		{From: bigID + 3, To: 4},
	}
	tail := []topology.Link{{From: bigID + 2, To: 4}, {From: -1, To: 3}}
	grown := NewGrowingCoverage(NewTargetIndex(links))
	for _, l := range append(links[1:], tail...) {
		grown.AddTarget(l, 2)
	}
	for name, c := range map[string]*Coverage{"static": NewCoverage(links), "growing": grown} {
		allocs := testing.AllocsPerRun(100, func() {
			for _, l := range links {
				c.Observe(l, 1)
			}
			for _, l := range tail {
				c.Observe(l, 1)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Observe allocated %.1f objects per sweep", name, allocs)
		}
	}
}

// TestTargetIndexShared pins the sharing contract: coverages built on one
// index keep independent state, growing one of them past the index leaves
// the index and the others untouched, and a run's static Coverage
// allocates only itself, its first-coverage times and its bits.
func TestTargetIndexShared(t *testing.T) {
	links := []topology.Link{{From: 0, To: 1}, {From: 1, To: 0}, {From: 1, To: 2}, {From: 2, To: 1}}
	x := NewTargetIndex(links)
	off, from := slices.Clone(x.off), slices.Clone(x.from)
	a, b, g := NewCoverageOn(x), NewCoverageOn(x), NewGrowingCoverage(x)
	a.Observe(links[0], 3)
	b.Observe(links[1], 5)
	novel := topology.Link{From: 7, To: 0}
	if !a.AddTarget(novel, 9) || a.TargetSize() != 5 || len(a.tail) != 1 {
		t.Fatalf("a did not grow past the index: size %d, tail %v", a.TargetSize(), a.tail)
	}
	g.AddTarget(links[2], 4)
	g.AddTarget(novel, 6)
	if b.TargetSize() != 4 || len(b.tail) != 0 || b.index != x || a.index != x || g.index != x {
		t.Fatal("growing a reached the other coverages")
	}
	if !slices.Equal(off, x.off) || !slices.Equal(from, x.from) {
		t.Fatal("the shared index was written")
	}
	if at, ok := b.FirstCovered(links[1]); !ok || at != 5 || b.Remaining() != 3 {
		t.Fatalf("b: FirstCovered %v %v, remaining %d", at, ok, b.Remaining())
	}
	if _, ok := b.FirstCovered(links[0]); ok {
		t.Fatal("a's observation leaked into b")
	}
	if _, ok := b.BirthTime(novel); ok {
		t.Fatal("a's tail link leaked into b")
	}
	if born, ok := g.BirthTime(novel); !ok || born != 6 || g.TargetSize() != 2 {
		t.Fatalf("g: BirthTime(novel) %v %v, size %d", born, ok, g.TargetSize())
	}
	if allocs := testing.AllocsPerRun(50, func() { _ = NewCoverageOn(x) }); allocs > 3 {
		t.Errorf("NewCoverageOn allocated %.0f objects, want at most 3 (the Coverage, its times, its bits)", allocs)
	}
}

// TestTargetIndexConcurrentCoverages is the sharing contract under
// concurrency, as trial workers exercise it (run it with -race): several
// goroutines each build static and growing coverages on one index,
// observe links, grow past the index, and check their own results; the
// index is byte-identical afterwards.
func TestTargetIndexConcurrentCoverages(t *testing.T) {
	root := rng.New(1906)
	links := sortedBigLinks(root.Split())
	x := NewTargetIndex(links)
	off, from := slices.Clone(x.off), slices.Clone(x.from)
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				static, grown := NewCoverageOn(x), NewGrowingCoverage(x)
				novel := topology.Link{From: topology.NodeID(6*bigID + w), To: topology.NodeID(rep)}
				for i, l := range links {
					grown.AddTarget(l, float64(i))
				}
				grown.AddTarget(novel, 1)
				for i, l := range links {
					static.Observe(l, float64(i+w))
					grown.Observe(l, float64(i+w))
				}
				grown.Observe(novel, 2)
				if !static.Complete() || !grown.Complete() || grown.TargetSize() != len(links)+1 {
					errs[w] = fmt.Errorf("worker %d rep %d: static %v, grown %v", w, rep, static, grown)
					return
				}
				if at, _ := static.CompletionTime(); at != float64(len(links)-1+w) {
					errs[w] = fmt.Errorf("worker %d rep %d: completion %v", w, rep, at)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(off, x.off) || !slices.Equal(from, x.from) {
		t.Fatal("the shared index was written")
	}
}

// candidateTestNetwork draws a random network for the candidate-index test:
// Erdős–Rényi or streamed geometric graphs (sparse draws leave isolated
// nodes), available sets without feasibility repair (empty sets and
// empty-span edges), dropped directions, and span overrides that may empty
// a span.
func candidateTestNetwork(t *testing.T, r *rng.Source) *topology.Network {
	t.Helper()
	n := r.IntN(90) + 1
	var (
		nw  *topology.Network
		err error
	)
	if r.Bernoulli(0.5) {
		nw, err = topology.ErdosRenyi(n, r.Float64()*0.25, r)
	} else {
		nw, err = topology.GeometricCSR(n, 0.03+r.Float64()*0.25, r)
	}
	if err != nil {
		t.Fatal(err)
	}
	randomSet := func(universe int, q float64) channel.Set {
		var s channel.Set
		for c := 0; c < universe; c++ {
			if r.Bernoulli(q) {
				s.Add(channel.ID(c))
			}
		}
		return s
	}
	universe := r.IntN(100) + 1
	for u := 0; u < n; u++ {
		nw.SetAvail(topology.NodeID(u), randomSet(universe, 0.1+r.Float64()*0.5))
	}
	if r.Bernoulli(0.6) {
		if err := topology.DropRandomDirections(nw, r.Float64()*0.7, r); err != nil {
			t.Fatal(err)
		}
	}
	if r.Bernoulli(0.6) {
		for u := 0; u < n; u++ {
			for _, v := range nw.Neighbors(topology.NodeID(u)) {
				if v > topology.NodeID(u) && r.Bernoulli(0.3) {
					if err := nw.RestrictSpan(topology.NodeID(u), v, randomSet(universe, 0.3)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return nw
}

// TestTargetIndexFromCandidatesMatchesLinks pins the index copied from the
// inbound-candidate table to the index of the discoverable-link list,
// field for field, on random networks with dropped directions, span
// overrides, empty-span edges and isolated nodes: both are listener-major,
// each row the listener's senders ascending.
func TestTargetIndexFromCandidatesMatchesLinks(t *testing.T) {
	root := rng.New(1405)
	for trial := 0; trial < 300; trial++ {
		nw := candidateTestNetwork(t, root.Split())
		got := NewTargetIndexFromCandidates(nw.InboundCandidates())
		want := NewTargetIndex(nw.DiscoverableLinks())
		if !slices.Equal(got.off, want.off) || !slices.Equal(got.from, want.from) {
			t.Fatalf("trial %d (n=%d): candidate index\n off  %v\n from %v\nwant\n off  %v\n from %v",
				trial, nw.N(), got.off, got.from, want.off, want.from)
		}
	}
}
