package topology

import (
	"fmt"
	"math"
	"slices"

	"m2hew/internal/rng"
)

// visitGeometricPairs enumerates every pair of nodes within radius in
// ascending (i, j) order with i < j — exactly the order of the all-pairs
// scan — calling visit once per pair. It is the shared core of Geometric
// (which streams the pairs into a CSR adjacency without an edge list),
// DeriveGeometricCandidates (which builds candidate tables per epoch) and
// GeometricStreamStats (which keeps only O(n) counters). The scan runs over
// a spatial grid-bucket index: cell side ≥ radius so all partners of a node
// lie in its 3×3 cell neighborhood, cols capped at ⌈√n⌉ to bound the cell
// count by O(n) when the radius is tiny.
func visitGeometricPairs(nodes []Node, radius float64, visit func(i, j int32)) {
	n := len(nodes)
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	if radius > 0 {
		if byRadius := int(1 / radius); byRadius < cols {
			cols = byRadius
		}
	}
	if cols < 1 {
		cols = 1 // radius ≥ 1: one cell, the scan degenerates to all pairs
	}
	cellOf := func(coord float64) int {
		c := int(coord * float64(cols))
		if c < 0 {
			c = 0
		}
		if c >= cols {
			c = cols - 1
		}
		return c
	}
	buckets := make([][]int32, cols*cols)
	for i, nd := range nodes {
		c := cellOf(nd.Y)*cols + cellOf(nd.X)
		buckets[c] = append(buckets[c], int32(i))
	}
	var cand []int32
	for i := 0; i < n; i++ {
		cx, cy := cellOf(nodes[i].X), cellOf(nodes[i].Y)
		cand = cand[:0]
		for dy := -1; dy <= 1; dy++ {
			y := cy + dy
			if y < 0 || y >= cols {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				x := cx + dx
				if x < 0 || x >= cols {
					continue
				}
				for _, j := range buckets[y*cols+x] {
					if int(j) > i {
						cand = append(cand, j)
					}
				}
			}
		}
		// Bucket visit order is spatial; restore ascending-j emission order.
		slices.Sort(cand)
		for _, j := range cand {
			dx, dy := nodes[i].X-nodes[j].X, nodes[i].Y-nodes[j].Y
			if math.Hypot(dx, dy) <= radius {
				visit(int32(i), j)
			}
		}
	}
}

// placeNodes validates a geometric instance's size and radius and places
// its n nodes uniformly in the unit square, in NodeID order — the only rng
// draws a geometric instance consumes.
func placeNodes(n int, radius float64, r *rng.Source) ([]Node, error) {
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
	return nodes, nil
}

// GeometricCSR draws the same points as Geometric — the same rng draws,
// so the same point set — and numbers them along a Morton (Z-order) curve
// of their coordinates: a node's ID is its rank by a 16-bit-per-axis
// interleaved key, ties kept in draw order. Nodes close in the plane are
// then mostly close in NodeID order, so a listener's neighbors, and the
// per-node state the engines keep in NodeID order, sit in few cache lines
// and few NodeID words. The adjacency is Geometric's under the
// permutation. The scale scenarios (100k and 1M nodes) build their
// networks through it.
func GeometricCSR(n int, radius float64, r *rng.Source) (*Network, error) {
	nodes, err := placeNodes(n, radius, r)
	if err != nil {
		return nil, err
	}
	return geometricOn(mortonOrder(nodes), radius), nil
}

// GeometricConnectedCSR is GeometricConnected on GeometricCSR's numbering:
// it accepts the instance GeometricConnected accepts at the same seed,
// renumbered.
func GeometricConnectedCSR(n int, radius float64, r *rng.Source, attempts int) (*Network, error) {
	return retryConnected(n, radius, r, attempts, GeometricCSR)
}

// mortonOrder returns nodes renumbered in ascending Morton key of their
// coordinates, equal keys in their given order. Keys are integers (each
// coordinate scaled to 16 bits), so the order is the same on every
// architecture.
func mortonOrder(nodes []Node) []Node {
	keyed := make([]uint64, len(nodes))
	for i, nd := range nodes {
		key := spreadBits(axisKey(nd.X)) | spreadBits(axisKey(nd.Y))<<1
		keyed[i] = uint64(key)<<32 | uint64(i) // the index breaks ties
	}
	slices.Sort(keyed)
	out := make([]Node, len(nodes))
	for id, k := range keyed {
		out[id] = nodes[uint32(k)]
		out[id].ID = NodeID(id)
	}
	return out
}

// axisKey scales a unit-square coordinate to 16 bits, clamping it to the
// square first.
func axisKey(x float64) uint32 {
	return uint32(min(max(x, 0), 1) * (1<<16 - 1))
}

// spreadBits moves bit i of a 16-bit value to bit 2i.
func spreadBits(v uint32) uint32 {
	v = (v | v<<8) & 0x00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F
	v = (v | v<<2) & 0x33333333
	v = (v | v<<1) & 0x55555555
	return v
}

// StreamStats summarizes a geometric instance from the streaming pair scan
// alone: degree distribution and connectivity via a union-find over visited
// pairs, with O(n) memory and no edge list, adjacency, or Network. This is
// what lets 100k+ scenarios be inspected cheaply (cmd/ndtopo -stream).
type StreamStats struct {
	Nodes            int     `json:"nodes"`
	Edges            int     `json:"edges"`
	MinDegree        int     `json:"min_degree"`
	MaxDegree        int     `json:"max_degree"`
	MeanDegree       float64 `json:"mean_degree"`
	Isolated         int     `json:"isolated"`
	Components       int     `json:"components"`
	LargestComponent int     `json:"largest_component"`
}

// Connected reports whether the instance forms a single component.
func (s StreamStats) Connected() bool { return s.Components == 1 }

// GeometricStreamStats draws a geometric instance with the same rng
// sequence as Geometric and returns its StreamStats without
// building the graph.
func GeometricStreamStats(n int, radius float64, r *rng.Source) (StreamStats, error) {
	nodes, err := placeNodes(n, radius, r)
	if err != nil {
		return StreamStats{}, err
	}

	deg := make([]int32, n)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	edges := 0
	visitGeometricPairs(nodes, radius, func(i, j int32) {
		edges++
		deg[i]++
		deg[j]++
		ri, rj := find(i), find(j)
		if ri != rj {
			parent[ri] = rj
		}
	})

	st := StreamStats{Nodes: n, Edges: edges, MinDegree: int(deg[0]), MaxDegree: int(deg[0])}
	size := make(map[int32]int, 16)
	for i := 0; i < n; i++ {
		d := int(deg[i])
		if d < st.MinDegree {
			st.MinDegree = d
		}
		if d > st.MaxDegree {
			st.MaxDegree = d
		}
		if d == 0 {
			st.Isolated++
		}
		size[find(int32(i))]++
	}
	st.MeanDegree = 2 * float64(edges) / float64(n)
	st.Components = len(size)
	for _, sz := range size {
		if sz > st.LargestComponent {
			st.LargestComponent = sz
		}
	}
	return st, nil
}
