package topology

import (
	"fmt"
	"math"
	"slices"

	"m2hew/internal/rng"
)

// visitGeometricPairs enumerates every pair of nodes within radius in
// ascending (i, j) order with i < j — exactly the order of the all-pairs
// scan — calling visit once per pair. It streams, keeping only the cell
// grid and one node's partners, for DeriveGeometricCandidates (which
// builds candidate tables per epoch) and GeometricStreamStats (which keeps
// only O(n) counters); Geometric runs the same per-node scan through
// geometricOn instead.
func visitGeometricPairs(nodes []Node, radius float64, visit func(i, j int32)) {
	g := newCellGrid(nodes, radius)
	var part []int32
	for i := range nodes {
		part = g.upper(nodes, i, part[:0])
		for _, j := range part {
			visit(int32(i), j)
		}
	}
}

// cellGrid is the pair scan's spatial index: the unit square cut into
// cols×cols cells of side ≥ radius, so every partner of a node lies in its
// 3×3 cell neighborhood, with cols capped at ⌈√n⌉ to bound the cell count
// by O(n) when the radius is tiny. The nodes are counting-sorted by cell
// into one arena, ascending within a cell, so three horizontally adjacent
// cells are one contiguous run of it.
type cellGrid struct {
	cols  int
	start []int32 // per cell: its first arena position; len cols²+1
	arena []int32 // node indices, cell by cell
	cell  []int32 // per node: its cell, row-major

	radius float64
	// A squared distance below in2 is within radius and one above out2 is
	// not, exactly as math.Hypot(dx, dy) <= radius decides: the computed
	// squares and their sum, radius² and Hypot are each within a few ulps
	// (relative 2⁻⁵⁰) of their exact values, far inside the 2⁻²⁰ margin.
	// That holds while radius² is a normal float64 clear of overflow, so
	// outside [1e-150, 1e150] (or for a negative or NaN radius) the band
	// is everything and every pair goes to Hypot.
	in2, out2 float64
}

func newCellGrid(nodes []Node, radius float64) cellGrid {
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
		return min(max(int(coord*float64(cols)), 0), cols-1)
	}
	g := cellGrid{
		cols:   cols,
		start:  make([]int32, cols*cols+1),
		arena:  make([]int32, n),
		cell:   make([]int32, n),
		radius: radius,
		in2:    -1,
		out2:   math.Inf(1),
	}
	if radius >= 1e-150 && radius <= 1e150 {
		r2 := radius * radius
		g.in2, g.out2 = r2*(1-0x1p-20), r2*(1+0x1p-20)
	}
	for i, nd := range nodes {
		c := cellOf(nd.Y)*cols + cellOf(nd.X)
		g.cell[i] = int32(c)
		g.start[c+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	fill := slices.Clone(g.start[:cols*cols])
	for i, c := range g.cell {
		g.arena[fill[c]] = int32(i)
		fill[c]++
	}
	return g
}

// around returns the cell rows y0..y1 and columns x0..x1 of cell c's 3×3
// neighborhood.
func (g *cellGrid) around(c int32) (y0, y1, x0, x1 int) {
	cy, cx := int(c)/g.cols, int(c)%g.cols
	return max(cy-1, 0), min(cy+1, g.cols-1), max(cx-1, 0), min(cx+1, g.cols-1)
}

// run returns the arena run of cells x0..x1 in cell row y.
func (g *cellGrid) run(y, x0, x1 int) []int32 {
	return g.arena[g.start[y*g.cols+x0]:g.start[y*g.cols+x1+1]]
}

// upper appends node i's partners j > i within radius to out, ascending.
// The radius test runs before the sort, so only the survivors are sorted;
// it is math.Hypot(dx, dy) <= radius, settled from the squared distance
// outside the band around radius² (in2, out2) and by Hypot inside it. A
// NaN squared distance is inside the band.
func (g *cellGrid) upper(nodes []Node, i int, out []int32) []int32 {
	base := len(out)
	x, y := nodes[i].X, nodes[i].Y
	y0, y1, x0, x1 := g.around(g.cell[i])
	for row := y0; row <= y1; row++ {
		for _, j := range g.run(row, x0, x1) {
			if int(j) <= i {
				continue
			}
			dx, dy := x-nodes[j].X, y-nodes[j].Y
			d2 := float64(dx*dx) + float64(dy*dy) // conversions keep the sum unfused
			if d2 < g.in2 || !(d2 > g.out2) && math.Hypot(dx, dy) <= g.radius {
				out = append(out, j)
			}
		}
	}
	// Bucket visit order is spatial; restore ascending-j order.
	slices.Sort(out[base:])
	return out
}

// candidateBound returns the number of pairs i < j whose cells are
// neighbors — every pair upper tests, so a bound on the pairs it keeps.
// The neighbor relation is symmetric, so the sum over nodes of their 3×3
// neighborhoods' sizes counts each such pair twice and each node once.
func (g *cellGrid) candidateBound() int {
	sum := 0
	for c := range len(g.start) - 1 {
		size := int(g.start[c+1] - g.start[c])
		if size == 0 {
			continue
		}
		y0, y1, x0, x1 := g.around(int32(c))
		for row := y0; row <= y1; row++ {
			sum += size * len(g.run(row, x0, x1))
		}
	}
	return (sum - len(g.cell)) / 2
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
