package topology

import (
	"fmt"
	"slices"
	"testing"

	"m2hew/internal/rng"
)

// TestGeometricCSRMatchesGeometric pins the streamed CSR build and
// GeometricCSR's numbering. Geometric must equal the edge-list reference —
// the all-pairs scan fed through newNetwork's dedup and per-row sort — on
// the node placement the rng draws give. GeometricCSR must hold the same
// point set, numbered densely in ascending Morton key (draw order among
// equal keys), with Geometric's adjacency under that permutation.
func TestGeometricCSRMatchesGeometric(t *testing.T) {
	root := rng.New(61)
	for trial := 0; trial < 40; trial++ {
		seed := root.Uint64()
		n := int(seed%300) + 1
		radius := 0.02 + float64(seed%97)/97*0.5
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			a, err := Geometric(n, radius, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			nodes := a.Nodes()
			r := rng.New(seed)
			for _, nd := range nodes {
				if x, y := r.Float64(), r.Float64(); nd.X != x || nd.Y != y {
					t.Fatalf("node %d placed at (%v, %v), draws give (%v, %v)", nd.ID, nd.X, nd.Y, x, y)
				}
			}
			ref, err := newNetwork(nodes, geometricEdgesNaive(nodes, radius))
			if err != nil {
				t.Fatal(err)
			}
			if ref.EdgeCount() != a.EdgeCount() {
				t.Fatalf("edge counts differ: %d vs %d", ref.EdgeCount(), a.EdgeCount())
			}
			for u := 0; u < n; u++ {
				if want, got := ref.Neighbors(NodeID(u)), a.Neighbors(NodeID(u)); !slices.Equal(got, want) {
					t.Fatalf("node %d: adjacency %v, reference %v", u, got, want)
				}
			}
			b, err := GeometricCSR(n, radius, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			checkMortonRelabel(t, a, b)
		})
	}
}

// mortonKeyRef is the reference Morton key, interleaved bit by bit: bit i
// of the x key goes to bit 2i, bit i of the y key to bit 2i+1.
func mortonKeyRef(nd Node) uint32 {
	kx, ky := uint32(nd.X*65535), uint32(nd.Y*65535)
	key := uint32(0)
	for i := 0; i < 16; i++ {
		key |= (kx>>i&1)<<(2*i) | (ky>>i&1)<<(2*i+1)
	}
	return key
}

// checkMortonRelabel pins b as a's spatial renumbering: b's IDs are dense,
// its node i sits at the point a's node perm[i] sits at, perm is a
// permutation that ascends by Morton key and, among equal keys, by a's ID,
// and b's adjacency is a's mapped through perm, rows ascending.
func checkMortonRelabel(t *testing.T, a, b *Network) {
	t.Helper()
	n := a.N()
	if b.N() != n || b.EdgeCount() != a.EdgeCount() {
		t.Fatalf("relabelled network has %d nodes and %d edges, want %d and %d", b.N(), b.EdgeCount(), n, a.EdgeCount())
	}
	at := make(map[[2]float64]NodeID, n)
	for _, nd := range a.Nodes() {
		at[[2]float64{nd.X, nd.Y}] = nd.ID
	}
	if len(at) != n {
		t.Skip("two draws coincide")
	}
	perm := make([]NodeID, n)
	seen := make([]bool, n)
	for i, nd := range b.Nodes() {
		if nd.ID != NodeID(i) {
			t.Fatalf("node %d carries ID %d", i, nd.ID)
		}
		old, ok := at[[2]float64{nd.X, nd.Y}]
		if !ok || seen[old] {
			t.Fatalf("node %d at (%v, %v) is not a distinct point of the draws", i, nd.X, nd.Y)
		}
		perm[i], seen[old] = old, true
		if i > 0 {
			prev := b.Node(NodeID(i - 1))
			kp, k := mortonKeyRef(prev), mortonKeyRef(nd)
			if kp > k || (kp == k && perm[i-1] > old) {
				t.Fatalf("nodes %d and %d out of Morton order: keys %#x, %#x, draws %d, %d", i-1, i, kp, k, perm[i-1], old)
			}
		}
	}
	for u := 0; u < n; u++ {
		got := b.Neighbors(NodeID(u))
		if !slices.IsSorted(got) {
			t.Fatalf("node %d: row %v not ascending", u, got)
		}
		mapped := make([]NodeID, len(got))
		for i, v := range got {
			mapped[i] = perm[v]
		}
		slices.Sort(mapped)
		if want := a.Neighbors(perm[u]); !slices.Equal(mapped, want) {
			t.Fatalf("node %d (drawn %d): neighbors %v map to %v, want %v", u, perm[u], got, mapped, want)
		}
	}
}

// TestGeometricConnectedCSRMatchesRetryLoop pins the retrying variant: at
// the same seed it accepts the instance GeometricConnected accepts, in
// GeometricCSR's numbering.
func TestGeometricConnectedCSRMatchesRetryLoop(t *testing.T) {
	for _, seed := range []uint64{67, 68, 69} {
		a, err := GeometricConnected(60, 0.2, rng.New(seed), 100)
		if err != nil {
			t.Fatal(err)
		}
		b, err := GeometricConnectedCSR(60, 0.2, rng.New(seed), 100)
		if err != nil {
			t.Fatal(err)
		}
		checkMortonRelabel(t, a, b)
		if !b.Connected() {
			t.Fatalf("seed %d: CSR instance not connected", seed)
		}
	}
}

// TestGeometricStreamStatsMatchesGraph pins the O(n) streaming summary to
// the materialized graph at matched seed.
func TestGeometricStreamStatsMatchesGraph(t *testing.T) {
	root := rng.New(71)
	for trial := 0; trial < 25; trial++ {
		seed := root.Uint64()
		n := int(seed%200) + 1
		radius := 0.02 + float64(seed%89)/89*0.4
		st, err := GeometricStreamStats(n, radius, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		nw, err := Geometric(n, radius, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if st.Nodes != n || st.Edges != nw.EdgeCount() {
			t.Fatalf("trial %d: nodes/edges %d/%d, want %d/%d", trial, st.Nodes, st.Edges, n, nw.EdgeCount())
		}
		minDeg, maxDeg, isolated := -1, 0, 0
		for u := 0; u < n; u++ {
			d := len(nw.Neighbors(NodeID(u)))
			if minDeg < 0 || d < minDeg {
				minDeg = d
			}
			if d > maxDeg {
				maxDeg = d
			}
			if d == 0 {
				isolated++
			}
		}
		if st.MinDegree != minDeg || st.MaxDegree != maxDeg || st.Isolated != isolated {
			t.Fatalf("trial %d: degrees min/max/iso %d/%d/%d, want %d/%d/%d",
				trial, st.MinDegree, st.MaxDegree, st.Isolated, minDeg, maxDeg, isolated)
		}
		if st.Connected() != nw.Connected() {
			t.Fatalf("trial %d: Connected %v, want %v", trial, st.Connected(), nw.Connected())
		}
		if nw.Connected() && (st.Components != 1 || st.LargestComponent != n) {
			t.Fatalf("trial %d: components=%d largest=%d on a connected graph of %d",
				trial, st.Components, st.LargestComponent, n)
		}
	}
}

// TestInboundCandidatesMatchesNaive pins the arena-backed shared-span table
// to the original row-at-a-time build across asymmetric drops and span
// overrides, on Erdős–Rényi graphs with repaired Bernoulli sets, streamed
// geometric graphs with uniform-k sets, and unrepaired random networks with
// empty sets, empty spans and isolated nodes.
func TestInboundCandidatesMatchesNaive(t *testing.T) {
	root := rng.New(73)
	for trial := 0; trial < 50; trial++ {
		r := root.Split()
		n := r.IntN(60) + 2
		nw, err := ErdosRenyi(n, 0.25, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := AssignBernoulli(nw, r.IntN(5)+1, 0.7, r); err != nil {
			t.Fatal(err)
		}
		perturbCandidateNetwork(t, nw, r)
		checkInboundCandidates(t, fmt.Sprintf("erdos-renyi trial %d", trial), nw)
	}
	for trial := 0; trial < 50; trial++ {
		r := root.Split()
		nw, err := GeometricCSR(r.IntN(300)+2, 0.05+r.Float64()*0.15, r)
		if err != nil {
			t.Fatal(err)
		}
		k := r.IntN(6) + 1
		if err := AssignUniformK(nw, k+r.IntN(70), k, r); err != nil {
			t.Fatal(err)
		}
		perturbCandidateNetwork(t, nw, r)
		checkInboundCandidates(t, fmt.Sprintf("geometric-csr trial %d", trial), nw)
	}
	for trial := 0; trial < 50; trial++ {
		checkInboundCandidates(t, fmt.Sprintf("unrepaired trial %d", trial), tableTestNetwork(t, root.Split()))
	}
}

// perturbCandidateNetwork drops random directions and caps random spans,
// each on about half the networks.
func perturbCandidateNetwork(t *testing.T, nw *Network, r *rng.Source) {
	t.Helper()
	if r.Bernoulli(0.5) {
		if err := DropRandomDirections(nw, 0.4, r); err != nil {
			t.Fatal(err)
		}
	}
	if r.Bernoulli(0.3) {
		if err := RestrictSpansRandomly(nw, 1, r); err != nil {
			t.Fatal(err)
		}
	}
}

// checkInboundCandidates compares InboundCandidates with the naive build
// row by row: same transmitters in the same order, equal spans.
func checkInboundCandidates(t *testing.T, name string, nw *Network) {
	t.Helper()
	got, want := nw.InboundCandidates(), nw.inboundCandidatesNaive()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for u := range want {
		if len(got[u]) != len(want[u]) {
			t.Fatalf("%s node %d: %d candidates, want %d", name, u, len(got[u]), len(want[u]))
		}
		for i := range want[u] {
			if got[u][i].From != want[u][i].From {
				t.Fatalf("%s node %d cand %d: From %d, want %d", name, u, i, got[u][i].From, want[u][i].From)
			}
			if !got[u][i].Span.Equal(want[u][i].Span) {
				t.Fatalf("%s node %d cand %d: span %v, want %v", name, u, i, got[u][i].Span, want[u][i].Span)
			}
		}
	}
}
