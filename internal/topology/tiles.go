package topology

import (
	"fmt"
	"math"
)

// Tiling partitions a network's nodes into a cols×rows grid of spatial
// tiles, the unit of parallelism of the sharded synchronous engine. The
// engine resolves each tile's listeners on its own worker; because radio
// interference is local (a transmission reaches only nodes within radius),
// a tile whose cell side is at least the connection radius only ever hears
// transmitters from its own 3×3 tile neighborhood — the halo — so one
// barrier per slot phase suffices to exchange everything a tile needs.
//
// The tiling itself never assumes the side≥radius property: it just
// partitions by coordinates. Whether every edge really stays within one
// tile boundary is verified structurally when the candidate table is packed
// into halo-local masks (NewTileMasks returns nil on any violation), so a
// mis-sized tiling degrades to the single-threaded engine instead of
// corrupting results.
//
// Halo word space: each tile t owns a word-aligned segment per neighborhood
// tile (including itself), in ascending tile order. A neighbor s's segment
// holds s's nodes as a little bitset — bit i of segment word w is the node
// at s's local index 64·w+i, where local indexes number s's nodes in
// ascending NodeID order. Word alignment means publishing a halo is a
// straight word copy of the neighbor's local transmitter mask, no shifting.
type Tiling struct {
	cols, rows int
	n          int

	at    []tilePlace // node -> its tile and local index, one load for both
	order []NodeID    // nodes grouped by tile, ascending ID within each tile
	off   []int32     // tile -> start index into order; len tiles+1

	// Halo layout, per tile: the existing tiles of the 3×3 neighborhood in
	// ascending tile order (always including the tile itself), and the word
	// offset of each neighbor's segment in the tile's halo word space (one
	// extra entry: the total halo word count).
	haloTiles [][]int32
	haloSegs  [][]int32
	// haloAt is haloSegs by grid position: entry 9·t + 3·(dy+1) + (dx+1)
	// is the word offset of the segment of the tile dx columns and dy rows
	// from t, or -1 where that tile is off the grid. rowOf is each tile's
	// grid row, which recovers (dx, dy) from two tile indexes without a
	// division.
	haloAt []int32
	rowOf  []int32
}

// tilePlace is where a node sits in a tiling: its tile (row-major index
// ty·cols+tx) and its local index within that tile (ascending-ID order).
type tilePlace struct{ tile, local int32 }

// NewTiling partitions nw's nodes into a cols×rows grid over the bounding
// box of their coordinates. Tiles may be empty; nodes exactly on the upper
// boundary land in the last tile. For the sharded engine to stay exact the
// cell side must be at least the connection radius (use TilingByRadius);
// a violation is caught downstream by NewTileMasks, never silently wrong.
func NewTiling(nw *Network, cols, rows int) (*Tiling, error) {
	if nw == nil {
		return nil, fmt.Errorf("topology: tiling needs a network")
	}
	if cols <= 0 || rows <= 0 {
		return nil, fmt.Errorf("topology: tiling grid %dx%d must be positive", cols, rows)
	}
	n := nw.N()
	minX, minY, spanX, spanY := boundingBox(nw)
	cellOf := func(coord, lo, span float64, cells int) int {
		if span <= 0 {
			return 0
		}
		c := int((coord - lo) / span * float64(cells))
		if c < 0 {
			c = 0
		}
		if c >= cells {
			c = cells - 1
		}
		return c
	}

	tiles := cols * rows
	tl := &Tiling{
		cols:  cols,
		rows:  rows,
		n:     n,
		at:    make([]tilePlace, n),
		order: make([]NodeID, n),
		off:   make([]int32, tiles+1),
	}
	counts := make([]int32, tiles)
	for u := 0; u < n; u++ {
		nd := nw.Node(NodeID(u))
		t := cellOf(nd.Y, minY, spanY, rows)*cols + cellOf(nd.X, minX, spanX, cols)
		tl.at[u].tile = int32(t)
		counts[t]++
	}
	for t := 0; t < tiles; t++ {
		tl.off[t+1] = tl.off[t] + counts[t]
	}
	fill := make([]int32, tiles)
	copy(fill, tl.off[:tiles])
	// Ascending u keeps each tile's slice in ascending NodeID order.
	for u := 0; u < n; u++ {
		t := tl.at[u].tile
		tl.at[u].local = fill[t] - tl.off[t]
		tl.order[fill[t]] = NodeID(u)
		fill[t]++
	}

	tl.haloTiles = make([][]int32, tiles)
	tl.haloSegs = make([][]int32, tiles)
	tl.haloAt = make([]int32, 9*tiles)
	tl.rowOf = make([]int32, tiles)
	for ty := 0; ty < rows; ty++ {
		for tx := 0; tx < cols; tx++ {
			t := ty*cols + tx
			tl.rowOf[t] = int32(ty)
			// Row-major scan of the 3×3 neighborhood yields ascending tile
			// indexes directly.
			var hood []int32
			segs := []int32{0}
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					at := &tl.haloAt[9*t+3*(dy+1)+dx+1]
					x, y := tx+dx, ty+dy
					if x < 0 || x >= cols || y < 0 || y >= rows {
						*at = -1
						continue
					}
					*at = segs[len(hood)]
					hood = append(hood, int32(y*cols+x))
					segs = append(segs, *at+int32(tl.TileWords(y*cols+x)))
				}
			}
			tl.haloTiles[t] = hood
			tl.haloSegs[t] = segs
		}
	}
	return tl, nil
}

// TilingByRadius builds a tiling whose cell side is at least radius on
// both axes — the exactness precondition of the sharded engine — aiming
// for roughly targetTiles tiles: ⌊√targetTiles⌋ cells per axis, each axis
// capped at ⌊span/radius⌋ cells, where span is the nodes' bounding-box
// extent along it (NewTiling divides that box, not the unit square), and
// at least one. With a tiny target the whole network becomes one tile,
// which is legal (the engine degenerates to one worker). radius must be
// positive.
func TilingByRadius(nw *Network, radius float64, targetTiles int) (*Tiling, error) {
	if nw == nil {
		return nil, fmt.Errorf("topology: tiling needs a network")
	}
	if radius <= 0 {
		return nil, fmt.Errorf("topology: tiling radius %v must be positive", radius)
	}
	side := int(math.Sqrt(float64(max(targetTiles, 1))))
	_, _, spanX, spanY := boundingBox(nw)
	cells := func(span float64) int {
		if byRadius := span / radius; byRadius < float64(side) {
			return int(max(byRadius, 1)) // ⌊span/radius⌋, at least one cell
		}
		return side
	}
	return NewTiling(nw, cells(spanX), cells(spanY))
}

// boundingBox returns the lower corner and the extents of nw's node
// coordinates (extents are 0 or negative for an empty network).
func boundingBox(nw *Network) (minX, minY, spanX, spanY float64) {
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for u := 0; u < nw.N(); u++ {
		nd := nw.Node(NodeID(u))
		minX, maxX = math.Min(minX, nd.X), math.Max(maxX, nd.X)
		minY, maxY = math.Min(minY, nd.Y), math.Max(maxY, nd.Y)
	}
	return minX, minY, maxX - minX, maxY - minY
}

// Tiles returns the number of grid cells (including empty ones).
func (tl *Tiling) Tiles() int { return tl.cols * tl.rows }

// Cols and Rows return the grid dimensions.
func (tl *Tiling) Cols() int { return tl.cols }

// Rows returns the grid's row count.
func (tl *Tiling) Rows() int { return tl.rows }

// N returns the number of nodes partitioned.
func (tl *Tiling) N() int { return tl.n }

// TileNodes returns tile t's nodes in ascending NodeID order — the order
// that defines each node's local index. Shared storage; do not modify.
func (tl *Tiling) TileNodes(t int) []NodeID {
	return tl.order[tl.off[t]:tl.off[t+1]]
}

// TileOf returns the tile that owns node u.
func (tl *Tiling) TileOf(u NodeID) int { return int(tl.at[u].tile) }

// LocalIndex returns u's bit position within its tile's segment.
func (tl *Tiling) LocalIndex(u NodeID) int { return int(tl.at[u].local) }

// TileWords returns the word width of tile t's segment: ⌈nodes/64⌉.
func (tl *Tiling) TileWords(t int) int {
	return (int(tl.off[t+1]-tl.off[t]) + 63) / 64
}

// HaloTiles returns the tiles of t's 3×3 neighborhood (ascending, always
// including t itself). Shared storage; do not modify.
func (tl *Tiling) HaloTiles(t int) []int32 { return tl.haloTiles[t] }

// HaloSegments returns, aligned with HaloTiles(t), the word offset of each
// neighbor's segment in t's halo word space; the extra final entry is the
// total halo width HaloWords(t). Shared storage; do not modify.
func (tl *Tiling) HaloSegments(t int) []int32 { return tl.haloSegs[t] }

// HaloWords returns the word width of tile t's halo space.
func (tl *Tiling) HaloWords(t int) int {
	segs := tl.haloSegs[t]
	return int(segs[len(segs)-1])
}

// HaloNode maps a bit position in tile t's halo word space back to the node
// it represents, or −1 for alignment-padding bits past a segment's last
// node.
//
//nd:hotpath
func (tl *Tiling) HaloNode(t, bit int) NodeID {
	segs := tl.haloSegs[t]
	hood := tl.haloTiles[t]
	w := int32(bit >> 6)
	// ≤9 segments: a linear scan beats binary search at this size.
	for j := len(hood) - 1; j >= 0; j-- {
		if w >= segs[j] {
			s := hood[j]
			local := (bit>>6-int(segs[j]))<<6 + bit&63
			if local >= int(tl.off[s+1]-tl.off[s]) {
				return -1
			}
			return tl.order[int(tl.off[s])+local]
		}
	}
	return -1
}

// haloBit returns node v's bit position in tile t's halo word space, or -1
// when v's tile is outside t's halo. It reads the segment offset from t's
// 3×3 table at the grid offset (dx, dy) of v's tile; both tiles lie on the
// grid, so an offset within one column and one row always names a real
// entry.
//
//nd:hotpath
func (tl *Tiling) haloBit(t int, v NodeID) int {
	at := tl.at[v]
	s := int(at.tile)
	dy := int(tl.rowOf[s] - tl.rowOf[t])
	dx := s - t - dy*tl.cols
	if dx < -1 || dx > 1 || dy < -1 || dy > 1 {
		return -1
	}
	return int(tl.haloAt[9*t+3*(dy+1)+dx+1])<<6 + int(at.local)
}
