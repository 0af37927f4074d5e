package topology

import (
	"fmt"
	"math"
	"testing"

	"m2hew/internal/rng"
)

func TestGeometricBasics(t *testing.T) {
	r := rng.New(1)
	nw, err := Geometric(30, 0.3, r)
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 30 {
		t.Fatalf("N = %d", nw.N())
	}
	// Every edge respects the radius; every non-edge exceeds it.
	for i := 0; i < nw.N(); i++ {
		for j := i + 1; j < nw.N(); j++ {
			a, b := nw.Node(NodeID(i)), nw.Node(NodeID(j))
			d := math.Hypot(a.X-b.X, a.Y-b.Y)
			adj := nw.AreNeighbors(NodeID(i), NodeID(j))
			if adj && d > 0.3 {
				t.Fatalf("edge %d-%d at distance %v > radius", i, j, d)
			}
			if !adj && d <= 0.3 {
				t.Fatalf("missing edge %d-%d at distance %v <= radius", i, j, d)
			}
		}
	}
	// Positions inside the unit square.
	for _, node := range nw.Nodes() {
		if node.X < 0 || node.X >= 1 || node.Y < 0 || node.Y >= 1 {
			t.Fatalf("node %d at (%v,%v) outside unit square", node.ID, node.X, node.Y)
		}
	}
}

func TestGeometricErrors(t *testing.T) {
	r := rng.New(1)
	if _, err := Geometric(0, 0.5, r); err == nil {
		t.Fatal("0 nodes accepted")
	}
	if _, err := Geometric(5, -0.1, r); err == nil {
		t.Fatal("negative radius accepted")
	}
}

func TestGeometricRadiusExtremes(t *testing.T) {
	r := rng.New(2)
	full, err := Geometric(10, 2.0, r) // radius > diagonal: clique
	if err != nil {
		t.Fatal(err)
	}
	if full.EdgeCount() != 45 {
		t.Fatalf("radius 2 graph has %d edges, want 45", full.EdgeCount())
	}
	empty, err := Geometric(10, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if empty.EdgeCount() != 0 {
		t.Fatalf("radius 0 graph has %d edges, want 0", empty.EdgeCount())
	}
}

func TestErdosRenyi(t *testing.T) {
	r := rng.New(3)
	nw, err := ErdosRenyi(50, 0.2, r)
	if err != nil {
		t.Fatal(err)
	}
	// Expected edges = C(50,2)·0.2 = 245; allow wide tolerance.
	if e := nw.EdgeCount(); e < 150 || e > 350 {
		t.Fatalf("G(50,0.2) has %d edges, expected ~245", e)
	}
	if _, err := ErdosRenyi(5, 1.5, r); err == nil {
		t.Fatal("p > 1 accepted")
	}
	if _, err := ErdosRenyi(0, 0.5, r); err == nil {
		t.Fatal("0 nodes accepted")
	}
	dense, err := ErdosRenyi(10, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if dense.EdgeCount() != 45 {
		t.Fatalf("G(10,1) has %d edges, want 45", dense.EdgeCount())
	}
}

func TestGrid(t *testing.T) {
	nw, err := Grid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 12 {
		t.Fatalf("N = %d, want 12", nw.N())
	}
	// Edges: horizontal 3·3 + vertical 2·4 = 17.
	if nw.EdgeCount() != 17 {
		t.Fatalf("edges = %d, want 17", nw.EdgeCount())
	}
	// Corner has degree 2, interior degree 4.
	if d := len(nw.Neighbors(0)); d != 2 {
		t.Fatalf("corner degree %d, want 2", d)
	}
	if d := len(nw.Neighbors(5)); d != 4 { // row 1, col 1
		t.Fatalf("interior degree %d, want 4", d)
	}
	if _, err := Grid(0, 5); err == nil {
		t.Fatal("0-row grid accepted")
	}
}

func TestLine(t *testing.T) {
	nw := mustLine(t, 5)
	if nw.EdgeCount() != 4 {
		t.Fatalf("line edges = %d, want 4", nw.EdgeCount())
	}
	if len(nw.Neighbors(0)) != 1 || len(nw.Neighbors(2)) != 2 {
		t.Fatal("line degrees wrong")
	}
	if !nw.Connected() {
		t.Fatal("line not connected")
	}
}

func TestRing(t *testing.T) {
	nw, err := Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	if nw.EdgeCount() != 6 {
		t.Fatalf("ring edges = %d, want 6", nw.EdgeCount())
	}
	for u := 0; u < 6; u++ {
		if len(nw.Neighbors(NodeID(u))) != 2 {
			t.Fatalf("ring node %d degree != 2", u)
		}
	}
	if _, err := Ring(2); err == nil {
		t.Fatal("2-node ring accepted")
	}
}

func TestClique(t *testing.T) {
	nw, err := Clique(7)
	if err != nil {
		t.Fatal(err)
	}
	if nw.EdgeCount() != 21 {
		t.Fatalf("K7 edges = %d, want 21", nw.EdgeCount())
	}
	if _, err := Clique(0); err == nil {
		t.Fatal("empty clique accepted")
	}
	one, err := Clique(1)
	if err != nil {
		t.Fatal(err)
	}
	if one.EdgeCount() != 0 {
		t.Fatal("K1 has edges")
	}
}

func TestStar(t *testing.T) {
	nw, err := Star(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Neighbors(0)) != 5 {
		t.Fatalf("hub degree %d, want 5", len(nw.Neighbors(0)))
	}
	for u := 1; u < 6; u++ {
		if len(nw.Neighbors(NodeID(u))) != 1 {
			t.Fatalf("leaf %d degree != 1", u)
		}
	}
	if _, err := Star(0); err == nil {
		t.Fatal("empty star accepted")
	}
}

func TestTwoClusterBridge(t *testing.T) {
	nw, err := TwoClusterBridge(4)
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 8 {
		t.Fatalf("N = %d, want 8", nw.N())
	}
	// Each K4 has 6 edges, plus the bridge.
	if nw.EdgeCount() != 13 {
		t.Fatalf("edges = %d, want 13", nw.EdgeCount())
	}
	if !nw.AreNeighbors(3, 4) {
		t.Fatal("bridge edge 3-4 missing")
	}
	if !nw.Connected() {
		t.Fatal("bridge network not connected")
	}
	if _, err := TwoClusterBridge(0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestPair(t *testing.T) {
	nw, err := Pair()
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 2 || nw.EdgeCount() != 1 {
		t.Fatal("Pair is not a single edge")
	}
}

func TestGeometricConnected(t *testing.T) {
	r := rng.New(9)
	nw, err := GeometricConnected(20, 0.5, r, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !nw.Connected() {
		t.Fatal("GeometricConnected returned disconnected graph")
	}
	// Impossible request: tiny radius cannot connect 20 nodes (w.h.p.).
	if _, err := GeometricConnected(20, 0.01, r, 3); err == nil {
		t.Fatal("impossible connectivity request returned nil error")
	}
}

func TestConnected(t *testing.T) {
	line := mustLine(t, 3)
	if !line.Connected() {
		t.Fatal("line reported disconnected")
	}
	nodes := abstractNodes(3)
	disc, err := newNetwork(nodes, [][2]NodeID{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if disc.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	single, err := Clique(1)
	if err != nil {
		t.Fatal(err)
	}
	if !single.Connected() {
		t.Fatal("single node reported disconnected")
	}
}

// TestGeometricEdgesMatchNaive pins the grid-bucket pair scan to the
// all-pairs reference: same positions must yield the same pairs in the
// same order, so seeded networks are unchanged by the index. The sweep
// covers radii above and below the ⌈√n⌉ cell cap, the one-cell degenerate
// case (radius ≥ 1), radius 0, and boundary coordinates.
func TestGeometricEdgesMatchNaive(t *testing.T) {
	r := rng.New(7)
	cases := []struct {
		n      int
		radius float64
	}{
		{1, 0.3}, {2, 0.5}, {10, 0}, {10, 1.5}, {10, 0.9},
		{30, 0.3}, {50, 0.15}, {100, 0.08}, {200, 0.05}, {300, 0.12},
		{64, 0.01}, {25, 0.5},
	}
	for _, c := range cases {
		nodes := make([]Node, c.n)
		for i := range nodes {
			nodes[i] = Node{ID: NodeID(i), X: r.Float64(), Y: r.Float64()}
		}
		got := visitedPairs(nodes, c.radius)
		want := geometricEdgesNaive(nodes, c.radius)
		if len(got) != len(want) {
			t.Fatalf("n=%d radius=%v: %d edges, naive has %d", c.n, c.radius, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d radius=%v: edge %d is %v, naive has %v", c.n, c.radius, i, got[i], want[i])
			}
		}
	}
	// Hand-placed boundary coordinates: exact cell edges and corners.
	nodes := []Node{
		{ID: 0, X: 0, Y: 0}, {ID: 1, X: 0.25, Y: 0.25}, {ID: 2, X: 0.5, Y: 0.5},
		{ID: 3, X: 0.75, Y: 0.75}, {ID: 4, X: 0.999999, Y: 0.999999},
		{ID: 5, X: 0.25, Y: 0.75}, {ID: 6, X: 0.5, Y: 0},
	}
	for _, radius := range []float64{0.2, 0.25, 0.354, 0.5} {
		got := visitedPairs(nodes, radius)
		want := geometricEdgesNaive(nodes, radius)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("boundary radius=%v: %v, naive has %v", radius, got, want)
		}
	}
}

// BenchmarkGeometric measures graph construction across sizes; with the
// grid-bucket scan the per-node cost should stay near-flat as n grows (the
// radius shrinks with n to hold expected degree roughly constant).
func BenchmarkGeometric(b *testing.B) {
	cases := []struct {
		name   string
		n      int
		radius float64
	}{
		{"n200", 200, 0.12},
		{"n1000", 1000, 0.055},
		{"n5000", 5000, 0.025},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Geometric(c.n, c.radius, rng.New(uint64(i)+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, err := Geometric(25, 0.3, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Geometric(25, 0.3, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.EdgeCount() != b.EdgeCount() {
		t.Fatal("same seed produced different geometric graphs")
	}
	for u := 0; u < a.N(); u++ {
		na, nb := a.Neighbors(NodeID(u)), b.Neighbors(NodeID(u))
		if len(na) != len(nb) {
			t.Fatalf("node %d adjacency differs", u)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("node %d adjacency differs", u)
			}
		}
	}
}
