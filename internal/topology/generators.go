package topology

import (
	"fmt"
	"math"
	"slices"

	"m2hew/internal/rng"
)

// Geometric builds a random geometric graph: n nodes placed uniformly in the
// unit square, with an edge between every pair at Euclidean distance at most
// radius. This is the standard model for wireless ad hoc deployments and the
// default topology of the experiment suite.
//
// The pair scan (visitGeometricPairs) runs over a spatial grid-bucket index
// and streams twice — degree count, then fill — into one flat NodeID arena
// whose rows are handed out as subslices. Rows arrive already sorted (row u
// receives each partner v<u while the scan's outer index is v, in ascending
// v, then each v>u while the outer index is u, in ascending v), so no edge
// list, dedup map or per-row sort is needed. Peak overhead beyond the
// finished adjacency is O(n), which is what lets 100k–1M-node topologies
// fit in memory. Node placement is the only rng use, so a seeded network
// is a pure function of (n, radius, seed).
func Geometric(n int, radius float64, r *rng.Source) (*Network, error) {
	nodes, err := placeNodes(n, radius, r)
	if err != nil {
		return nil, err
	}
	return geometricOn(nodes, radius), nil
}

// geometricOn builds the geometric graph of radius over placed nodes,
// numbered as given.
func geometricOn(nodes []Node, radius float64) *Network {
	n := len(nodes)
	off := make([]int32, n+1) // degree counts, then row offsets
	visitGeometricPairs(nodes, radius, func(i, j int32) {
		off[i+1]++
		off[j+1]++
	})
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	arena := make([]NodeID, off[n])
	cur := slices.Clone(off[:n]) // fill cursors
	visitGeometricPairs(nodes, radius, func(i, j int32) {
		arena[cur[i]] = NodeID(j)
		cur[i]++
		arena[cur[j]] = NodeID(i)
		cur[j]++
	})
	adj := make([][]NodeID, n)
	for i := 0; i < n; i++ {
		adj[i] = arena[off[i]:off[i+1]:off[i+1]]
	}
	return &Network{nodes: nodes, adj: adj}
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
	return retryConnected(n, radius, r, attempts, Geometric)
}

// retryConnected calls build until it returns a connected graph or
// attempts (50 when not positive) are exhausted.
func retryConnected(n int, radius float64, r *rng.Source, attempts int, build func(int, float64, *rng.Source) (*Network, error)) (*Network, error) {
	if attempts <= 0 {
		attempts = 50
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		nw, err := build(n, radius, r)
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
