package topology

import (
	"fmt"
	"reflect"
	"testing"

	"m2hew/internal/rng"
)

// TestGeometricCSRMatchesGeometric pins the streamed CSR build (Geometric,
// and GeometricCSR, its scale-benchmark name) to the edge-list reference:
// the all-pairs scan fed through newNetwork's dedup and per-row sort, on
// the same node placement. Identical nodes and sorted adjacency make
// everything downstream — spans, candidate tables, engines —
// indistinguishable.
func TestGeometricCSRMatchesGeometric(t *testing.T) {
	root := rng.New(61)
	for trial := 0; trial < 40; trial++ {
		seed := root.Uint64()
		n := int(seed%300) + 1
		radius := 0.02 + float64(seed%97)/97*0.5
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			b, err := GeometricCSR(n, radius, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			nodes := b.Nodes()
			a, err := newNetwork(nodes, geometricEdgesNaive(nodes, radius))
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(seed)
			for _, nd := range nodes {
				if x, y := r.Float64(), r.Float64(); nd.X != x || nd.Y != y {
					t.Fatalf("node %d placed at (%v, %v), draws give (%v, %v)", nd.ID, nd.X, nd.Y, x, y)
				}
			}
			if a.EdgeCount() != b.EdgeCount() {
				t.Fatalf("edge counts differ: %d vs %d", a.EdgeCount(), b.EdgeCount())
			}
			for u := 0; u < n; u++ {
				ga, gb := a.Neighbors(NodeID(u)), b.Neighbors(NodeID(u))
				if len(ga) != len(gb) {
					t.Fatalf("node %d: degree %d vs %d", u, len(ga), len(gb))
				}
				for i := range ga {
					if ga[i] != gb[i] {
						t.Fatalf("node %d: adjacency differs at %d: %v vs %v", u, i, ga, gb)
					}
				}
			}
		})
	}
}

// TestGeometricConnectedCSRMatchesRetryLoop pins the retrying variant: the
// accepted instance is the one GeometricConnected accepts at the same seed.
func TestGeometricConnectedCSRMatchesRetryLoop(t *testing.T) {
	a, err := GeometricConnected(60, 0.2, rng.New(67), 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GeometricConnectedCSR(60, 0.2, rng.New(67), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Nodes(), b.Nodes()) || a.EdgeCount() != b.EdgeCount() {
		t.Fatal("connected instances differ at matched seed")
	}
	if !b.Connected() {
		t.Fatal("CSR instance not connected")
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
