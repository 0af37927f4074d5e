package topology

import (
	"fmt"
	"math"
)

// Tiling is a cols×rows grid of spatial cells over the bounding box of a
// network's node coordinates. The synchronous engine takes a non-nil
// SyncConfig.Tiling as the request for its parallel path and checks only
// that the tiling was built for a network of the run's node count; the
// parallel path itself splits nodes into NodeID chunks, not cells. The
// grid survives as that request, and as the radius-matched cell count the
// scale scenarios report.
type Tiling struct {
	cols, rows int
	n          int
}

// NewTiling returns a cols×rows grid over nw's nodes.
func NewTiling(nw *Network, cols, rows int) (*Tiling, error) {
	if nw == nil {
		return nil, fmt.Errorf("topology: tiling needs a network")
	}
	if cols <= 0 || rows <= 0 {
		return nil, fmt.Errorf("topology: tiling grid %dx%d must be positive", cols, rows)
	}
	return &Tiling{cols: cols, rows: rows, n: nw.N()}, nil
}

// TilingByRadius builds a tiling whose cells, cut from the nodes'
// bounding box, are at least radius wide on both axes, aiming for roughly
// targetTiles tiles: ⌊√targetTiles⌋ cells per axis, each axis capped at
// ⌊span/radius⌋ cells, where span is the bounding-box extent along it, and
// at least one. radius must be positive.
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

// Tiles returns the number of grid cells.
func (tl *Tiling) Tiles() int { return tl.cols * tl.rows }

// Cols returns the grid's column count.
func (tl *Tiling) Cols() int { return tl.cols }

// Rows returns the grid's row count.
func (tl *Tiling) Rows() int { return tl.rows }

// N returns the node count of the network the tiling was built for.
func (tl *Tiling) N() int { return tl.n }
