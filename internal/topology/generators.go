package topology

import (
	"fmt"
	"math"

	"m2hew/internal/rng"
)

// Geometric builds a random geometric graph: n nodes placed uniformly in the
// unit square, with an edge between every pair at Euclidean distance at most
// radius. This is the standard model for wireless ad hoc deployments and the
// default topology of the experiment suite.
//
// The pair scan runs over a spatial grid-bucket index (expected O(n) work
// for the radii the suite uses) instead of all pairs; edge order and the rng
// draw sequence are identical to the all-pairs scan, so seeded networks are
// unchanged (the differential tests pin it to the all-pairs reference scan).
func Geometric(n int, radius float64, r *rng.Source) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: geometric with %d nodes: %w", n, ErrNoNodes)
	}
	if radius < 0 {
		return nil, fmt.Errorf("topology: geometric radius %v is negative", radius)
	}
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: NodeID(i), X: r.Float64(), Y: r.Float64()}
	}
	return newNetwork(nodes, geometricEdges(nodes, radius))
}

// geometricEdges lists every pair of nodes within radius, ordered by
// ascending first index then ascending second — exactly the order of the
// all-pairs scan it replaces. The grid-bucket scan itself lives in
// visitGeometricPairs, shared with the streaming CSR builders.
func geometricEdges(nodes []Node, radius float64) [][2]NodeID {
	var edges [][2]NodeID
	visitGeometricPairs(nodes, radius, func(i, j int32) {
		edges = append(edges, [2]NodeID{NodeID(i), NodeID(j)})
	})
	return edges
}

// ErdosRenyi builds a G(n, p) random graph: each of the n·(n−1)/2 possible
// edges is present independently with probability p.
func ErdosRenyi(n int, p float64, r *rng.Source) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: erdos-renyi with %d nodes: %w", n, ErrNoNodes)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("topology: erdos-renyi edge probability %v outside [0,1]", p)
	}
	nodes := abstractNodes(n)
	var edges [][2]NodeID
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bernoulli(p) {
				edges = append(edges, [2]NodeID{NodeID(i), NodeID(j)})
			}
		}
	}
	return newNetwork(nodes, edges)
}

// Grid builds a rows×cols lattice with 4-neighbor connectivity. Node IDs are
// row-major; coordinates reflect the lattice for visualization.
func Grid(rows, cols int) (*Network, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("topology: grid %dx%d: %w", rows, cols, ErrNoNodes)
	}
	nodes := make([]Node, rows*cols)
	var edges [][2]NodeID
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			id := NodeID(row*cols + col)
			nodes[id] = Node{ID: id, X: float64(col), Y: float64(row)}
			if col+1 < cols {
				edges = append(edges, [2]NodeID{id, id + 1})
			}
			if row+1 < rows {
				edges = append(edges, [2]NodeID{id, id + NodeID(cols)})
			}
		}
	}
	return newNetwork(nodes, edges)
}

// Line builds a path of n nodes: 0—1—…—(n−1). The multi-hop worst case for
// information propagation; every interior node has degree 2.
func Line(n int) (*Network, error) {
	return Grid(1, n)
}

// Ring builds a cycle of n nodes. It requires n ≥ 3.
func Ring(n int) (*Network, error) {
	if n < 3 {
		return nil, fmt.Errorf("topology: ring needs at least 3 nodes, got %d", n)
	}
	nodes := make([]Node, n)
	var edges [][2]NodeID
	for i := 0; i < n; i++ {
		angle := 2 * math.Pi * float64(i) / float64(n)
		nodes[i] = Node{ID: NodeID(i), X: math.Cos(angle), Y: math.Sin(angle)}
		edges = append(edges, [2]NodeID{NodeID(i), NodeID((i + 1) % n)})
	}
	return newNetwork(nodes, edges)
}

// Clique builds the complete graph on n nodes — the single-hop network of
// the paper's Related Work comparisons, where contention is maximal.
func Clique(n int) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: clique with %d nodes: %w", n, ErrNoNodes)
	}
	nodes := abstractNodes(n)
	var edges [][2]NodeID
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]NodeID{NodeID(i), NodeID(j)})
		}
	}
	return newNetwork(nodes, edges)
}

// Star builds a star with node 0 at the hub and n−1 leaves. The hub has the
// network's maximum degree, which stresses the Δ-dependence of the bounds.
func Star(n int) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: star with %d nodes: %w", n, ErrNoNodes)
	}
	nodes := abstractNodes(n)
	var edges [][2]NodeID
	for i := 1; i < n; i++ {
		edges = append(edges, [2]NodeID{0, NodeID(i)})
	}
	return newNetwork(nodes, edges)
}

// TwoClusterBridge builds two k-cliques joined by a single bridge edge
// between node k−1 and node k. It exhibits strong multi-hop structure: the
// bridge link must be discovered despite dense contention inside each
// cluster.
func TwoClusterBridge(k int) (*Network, error) {
	if k < 1 {
		return nil, fmt.Errorf("topology: bridge clusters need k >= 1, got %d", k)
	}
	n := 2 * k
	nodes := abstractNodes(n)
	var edges [][2]NodeID
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			edges = append(edges, [2]NodeID{NodeID(i), NodeID(j)})
			edges = append(edges, [2]NodeID{NodeID(k + i), NodeID(k + j)})
		}
	}
	edges = append(edges, [2]NodeID{NodeID(k - 1), NodeID(k)})
	return newNetwork(nodes, edges)
}

// Pair builds the 2-node, 1-edge network — the minimal discovery instance
// used by the coverage-probability experiments, where a single link can be
// measured without interference from third parties.
func Pair() (*Network, error) {
	nodes := abstractNodes(2)
	return newNetwork(nodes, [][2]NodeID{{0, 1}})
}

// GeometricConnected retries Geometric until the graph is connected (or
// attempts are exhausted). Disconnected instances are legal for discovery —
// the algorithms are per-link — but most experiments want connected
// multi-hop networks.
func GeometricConnected(n int, radius float64, r *rng.Source, attempts int) (*Network, error) {
	if attempts <= 0 {
		attempts = 50
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		nw, err := Geometric(n, radius, r)
		if err != nil {
			return nil, err
		}
		if nw.Connected() {
			return nw, nil
		}
		lastErr = fmt.Errorf("topology: no connected geometric graph with n=%d radius=%v in %d attempts", n, radius, attempts)
	}
	return nil, lastErr
}

// Connected reports whether the communication graph is connected (ignoring
// channels).
func (nw *Network) Connected() bool {
	if nw.N() == 0 {
		return false
	}
	visited := make([]bool, nw.N())
	stack := []NodeID{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range nw.adj[u] {
			if !visited[v] {
				visited[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == nw.N()
}

func abstractNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: NodeID(i)}
	}
	return nodes
}
