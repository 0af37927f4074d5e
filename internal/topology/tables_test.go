package topology

// Differential tests for the allocation-light set-up walks: DirectedLinks,
// DiscoverableLinks, DegreeOn, Validate, ComputeParams and the assigners'
// feasibility repair walk the adjacency directly instead of materializing
// link lists and spans. Each is checked against a reference copy of the
// link-list implementation it replaced, on random networks that exercise
// every branch: isolated nodes, empty available sets, empty-span edges,
// multi-word channel sets, dropped directions and span overrides (some
// disjoint from the edge's natural span).

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/rng"
)

// randomSet draws each of universe channels with probability q.
func randomSet(universe int, q float64, r *rng.Source) channel.Set {
	var s channel.Set
	for c := 0; c < universe; c++ {
		if r.Bernoulli(q) {
			s.Add(channel.ID(c))
		}
	}
	return s
}

// tableTestNetwork draws a random network with unrepaired available sets,
// random dropped directions and random span overrides.
func tableTestNetwork(t testing.TB, r *rng.Source) *Network {
	t.Helper()
	n := r.IntN(80) + 1
	var (
		nw  *Network
		err error
	)
	if r.Bernoulli(0.5) {
		nw, err = ErdosRenyi(n, r.Float64()*0.3, r)
	} else {
		nw, err = GeometricCSR(n, 0.05+r.Float64()*0.25, r)
	}
	if err != nil {
		t.Fatal(err)
	}
	universe := r.IntN(130) + 1 // sometimes past one 64-channel word
	for u := 0; u < n; u++ {
		nw.SetAvail(NodeID(u), randomSet(universe, 0.1+r.Float64()*0.4, r))
	}
	if r.Bernoulli(0.6) {
		if err := DropRandomDirections(nw, r.Float64()*0.6, r); err != nil {
			t.Fatal(err)
		}
	}
	if r.Bernoulli(0.6) {
		for u := 0; u < n; u++ {
			for _, v := range nw.Neighbors(NodeID(u)) {
				if v > NodeID(u) && r.Bernoulli(0.3) {
					if err := nw.RestrictSpan(NodeID(u), v, randomSet(universe, 0.3, r)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return nw
}

// refDirectedLinks is the append-grown DirectedLinks the adjacency walk
// replaced.
func refDirectedLinks(nw *Network) []Link {
	var links []Link
	for u := range nw.nodes {
		for _, v := range nw.adj[u] {
			if !nw.Reaches(NodeID(u), v) {
				continue
			}
			links = append(links, Link{From: NodeID(u), To: v})
		}
	}
	return links
}

// refDiscoverableLinks filters refDirectedLinks through materialized spans.
func refDiscoverableLinks(nw *Network) []Link {
	var links []Link
	for _, l := range refDirectedLinks(nw) {
		if !nw.Span(l.From, l.To).IsEmpty() {
			links = append(links, l)
		}
	}
	return links
}

// refDegreeOn materializes one span per neighbor.
func refDegreeOn(nw *Network, u NodeID, c channel.ID) int {
	d := 0
	for _, v := range nw.adj[u] {
		if nw.Reaches(v, u) && nw.Span(u, v).Contains(c) {
			d++
		}
	}
	return d
}

// refValidate checks spans over the materialized link list.
func refValidate(nw *Network) error {
	for u := range nw.nodes {
		for _, v := range nw.adj[u] {
			if !nw.AreNeighbors(v, NodeID(u)) {
				return fmt.Errorf("topology: asymmetric adjacency: %d->%d present, reverse missing", u, v)
			}
		}
		if nw.nodes[u].Avail.IsEmpty() {
			return fmt.Errorf("topology: node %d has empty available channel set", u)
		}
	}
	for _, l := range refDirectedLinks(nw) {
		if nw.Span(l.From, l.To).IsEmpty() {
			return fmt.Errorf("topology: edge {%d,%d} has empty span", l.From, l.To)
		}
	}
	return nil
}

// refComputeParams derives Params through DirectedLinks, Span and IDs.
func refComputeParams(nw *Network) Params {
	p := Params{
		N:            nw.N(),
		UniverseSize: nw.Universe().Size(),
		Rho:          1,
		Edges:        nw.EdgeCount(),
	}
	for u := range nw.nodes {
		if size := nw.nodes[u].Avail.Size(); size > p.S {
			p.S = size
		}
		if d := len(nw.adj[u]); d > p.MaxGraphDegree {
			p.MaxGraphDegree = d
		}
		for _, c := range nw.nodes[u].Avail.IDs() {
			if d := refDegreeOn(nw, NodeID(u), c); d > p.Delta {
				p.Delta = d
			}
		}
	}
	sawLink := false
	for _, l := range refDirectedLinks(nw) {
		span := nw.Span(l.From, l.To)
		if span.IsEmpty() {
			p.EmptySpanLinks++
			continue
		}
		p.DiscoverableLinks++
		ratio := float64(span.Size()) / float64(nw.nodes[l.To].Avail.Size())
		if !sawLink || ratio < p.Rho {
			p.Rho = ratio
			sawLink = true
		}
	}
	return p
}

// refRepairFeasibility walks the materialized DirectedLinks snapshot.
func refRepairFeasibility(nw *Network, universe channel.Set, r *rng.Source) error {
	for u := 0; u < nw.N(); u++ {
		if nw.Avail(NodeID(u)).IsEmpty() {
			c, err := universe.Pick(r)
			if err != nil {
				return fmt.Errorf("topology: repair node %d: %w", u, err)
			}
			s := nw.Avail(NodeID(u)).Clone()
			s.Add(c)
			nw.SetAvail(NodeID(u), s)
		}
	}
	for _, l := range refDirectedLinks(nw) {
		if l.From > l.To {
			continue
		}
		if !nw.Span(l.From, l.To).IsEmpty() {
			continue
		}
		a, b := l.From, l.To
		donor, recipient := a, b
		if nw.Avail(a).Size() < nw.Avail(b).Size() {
			donor, recipient = b, a
		}
		c, err := nw.Avail(donor).Pick(r)
		if err != nil {
			return fmt.Errorf("topology: repair edge {%d,%d}: %w", a, b, err)
		}
		s := nw.Avail(recipient).Clone()
		s.Add(c)
		nw.SetAvail(recipient, s)
	}
	return nil
}

// errString renders an error for comparison; nil is "".
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestSetupWalksMatchReference pins every rewritten set-up walk to its
// reference on random networks: the link lists, per-channel degrees,
// Validate's first error and the derived Params must all be identical.
func TestSetupWalksMatchReference(t *testing.T) {
	root := rng.New(1301)
	for trial := 0; trial < 200; trial++ {
		r := root.Split()
		nw := tableTestNetwork(t, r)
		if trial%2 == 1 {
			// Repaired sets get Validate past the per-node check; overridden
			// spans can stay empty.
			if err := repairFeasibility(nw, channel.Range(8), r); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := nw.DirectedLinks(), refDirectedLinks(nw); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: DirectedLinks\n got %v\nwant %v", trial, got, want)
		}
		if got, want := nw.DiscoverableLinks(), refDiscoverableLinks(nw); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: DiscoverableLinks\n got %v\nwant %v", trial, got, want)
		}
		for u := 0; u < nw.N(); u++ {
			for c := channel.ID(0); c < 140; c++ {
				if got, want := nw.DegreeOn(NodeID(u), c), refDegreeOn(nw, NodeID(u), c); got != want {
					t.Fatalf("trial %d: DegreeOn(%d, %d) = %d, want %d", trial, u, c, got, want)
				}
			}
		}
		if got, want := errString(nw.Validate()), errString(refValidate(nw)); got != want {
			t.Fatalf("trial %d: Validate = %q, want %q", trial, got, want)
		}
		if got, want := nw.ComputeParams(), refComputeParams(nw); got != want {
			t.Fatalf("trial %d: ComputeParams\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestRepairFeasibilityMatchesReference runs the adjacency-walk repair and
// the link-list reference on twin networks with twin rng streams: the
// repaired sets, the error and the streams' next draws must agree, so the
// walk order and the rng draws are unchanged.
func TestRepairFeasibilityMatchesReference(t *testing.T) {
	root := rng.New(1302)
	for trial := 0; trial < 200; trial++ {
		seed := root.Uint64()
		got, want := tableTestNetwork(t, rng.New(seed)), tableTestNetwork(t, rng.New(seed))
		universe := channel.Range(root.IntN(130) + 1)
		rGot, rWant := rng.New(seed+1), rng.New(seed+1)
		errGot, errWant := repairFeasibility(got, universe, rGot), refRepairFeasibility(want, universe, rWant)
		if errString(errGot) != errString(errWant) {
			t.Fatalf("trial %d: error %v, want %v", trial, errGot, errWant)
		}
		for u := 0; u < got.N(); u++ {
			if !got.Avail(NodeID(u)).Equal(want.Avail(NodeID(u))) {
				t.Fatalf("trial %d: node %d repaired to %v, want %v", trial, u, got.Avail(NodeID(u)), want.Avail(NodeID(u)))
			}
		}
		if a, b := rGot.Uint64(), rWant.Uint64(); a != b {
			t.Fatalf("trial %d: rng streams diverged after repair", trial)
		}
	}
}

// TestSetupWalksDoNotAllocate pins the allocation-free contract of
// ComputeParams, DegreeOn and Validate on a valid network without span
// overrides (an overridden edge is the one case that materializes a span).
func TestSetupWalksDoNotAllocate(t *testing.T) {
	r := rng.New(1303)
	nw, err := GeometricConnectedCSR(400, 0.12, r, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := AssignUniformK(nw, 8, 4, r); err != nil {
		t.Fatal(err)
	}
	if err := DropRandomDirections(nw, 0.2, r); err != nil {
		t.Fatal(err)
	}
	nw.ComputeParams() // refresh the stale universe once
	checks := map[string]func(){
		"ComputeParams": func() { nw.ComputeParams() },
		"DegreeOn":      func() { nw.DegreeOn(7, 2) },
		"Validate": func() {
			if err := nw.Validate(); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(5, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
}

// TestInboundCandidatesAllocsConstant pins the table build to a constant
// number of allocations: the same count at n=500 and n=5000, so a per-edge
// or per-node allocation cannot creep back in.
func TestInboundCandidatesAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		r := rng.New(1304)
		// Mean degree about 10 at either size.
		nw, err := GeometricCSR(n, math.Sqrt(10/(math.Pi*float64(n))), r)
		if err != nil {
			t.Fatal(err)
		}
		if err := AssignUniformK(nw, 8, 4, r); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() { nw.InboundCandidates() })
	}
	small, large := allocs(500), allocs(5000)
	if small != large {
		t.Fatalf("InboundCandidates allocates %v times at n=500 but %v at n=5000; want a constant", small, large)
	}
}

// TestUniverseConcurrentFirstRead reads a stale universe from several
// goroutines at once — what trial workers sharing one network do. Under
// the race detector an unsynchronized refresh fails this test.
func TestUniverseConcurrentFirstRead(t *testing.T) {
	nw, err := Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		for u := 0; u < nw.N(); u++ {
			nw.SetAvail(NodeID(u), channel.NewSet(channel.ID(u%5), channel.ID(round)))
		}
		want := channel.Range(5)
		want.Add(channel.ID(round))
		var wg sync.WaitGroup
		got := make([]channel.Set, 4)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = nw.Universe()
			}()
		}
		wg.Wait()
		for i, s := range got {
			if !s.Equal(want) {
				t.Fatalf("round %d reader %d: universe %v, want %v", round, i, s, want)
			}
		}
	}
}
