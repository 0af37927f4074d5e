package topology

import (
	"fmt"
	"testing"

	"m2hew/internal/rng"
)

// TestTilingPartition pins what NewTiling records for the engine's gate:
// the requested grid and the node count of the network it was built for,
// on networks of every size and grids of every shape, and the refusal of
// a missing network or an empty grid.
func TestTilingPartition(t *testing.T) {
	root := rng.New(41)
	for trial := 0; trial < 40; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			n := r.IntN(200) + 1
			nw, err := Geometric(n, 0.2, r)
			if err != nil {
				t.Fatal(err)
			}
			cols := r.IntN(5) + 1
			rows := r.IntN(5) + 1
			tl, err := NewTiling(nw, cols, rows)
			if err != nil {
				t.Fatal(err)
			}
			if tl.N() != n || tl.Tiles() != cols*rows || tl.Cols() != cols || tl.Rows() != rows {
				t.Fatalf("N=%d Tiles=%d grid %dx%d, want %d, %d, %dx%d", tl.N(), tl.Tiles(), tl.Cols(), tl.Rows(), n, cols*rows, cols, rows)
			}
			if _, err := NewTiling(nw, 0, rows); err == nil {
				t.Fatal("empty grid accepted")
			}
			if _, err := NewTiling(nil, cols, rows); err == nil {
				t.Fatal("missing network accepted")
			}
		})
	}
}

// cellOf returns the column and row of node u in a cols×rows grid over
// nw's bounding box, nodes on the upper boundary in the last cell.
func cellOf(nw *Network, cols, rows int, u NodeID) (col, row int) {
	minX, minY, spanX, spanY := boundingBox(nw)
	cell := func(coord, lo, span float64, cells int) int {
		if span <= 0 {
			return 0
		}
		return min(int((coord-lo)/span*float64(cells)), cells-1)
	}
	nd := nw.Node(u)
	return cell(nd.X, minX, spanX, cols), cell(nd.Y, minY, spanY, rows)
}

// TestTilingGeometryRespectsRadius pins what a radius-matched grid
// promises: with cell side ≥ radius, the endpoints of every edge lie in
// the same or adjacent cells, one column and one row apart at most.
func TestTilingGeometryRespectsRadius(t *testing.T) {
	root := rng.New(43)
	for trial := 0; trial < 30; trial++ {
		r := root.Split()
		radius := 0.08 + r.Float64()*0.3
		n := r.IntN(250) + 10
		nw, err := Geometric(n, radius, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := AssignUniformK(nw, 6, 3, r); err != nil {
			t.Fatal(err)
		}
		tl, err := TilingByRadius(nw, radius, r.IntN(30)+1)
		if err != nil {
			t.Fatal(err)
		}
		for u := NodeID(0); int(u) < n; u++ {
			ux, uy := cellOf(nw, tl.Cols(), tl.Rows(), u)
			for _, v := range nw.Neighbors(u) {
				vx, vy := cellOf(nw, tl.Cols(), tl.Rows(), v)
				if ux-vx > 1 || vx-ux > 1 || uy-vy > 1 || vy-uy > 1 {
					t.Fatalf("trial %d: edge %d-%d spans cells (%d,%d) and (%d,%d) of a %dx%d grid (n=%d radius=%v)",
						trial, u, v, ux, uy, vx, vy, tl.Cols(), tl.Rows(), n, radius)
				}
			}
		}
	}
}

// TestTilingByRadiusCellSide pins TilingByRadius's promise on networks
// whose bounding box is narrower than the unit square: the cells cut from
// that box are at least radius wide on both axes on every seed. A network
// spanning the square keeps the full target grid.
func TestTilingByRadiusCellSide(t *testing.T) {
	const n, radius = 60, 0.25
	for seed := uint64(1); seed <= 200; seed++ {
		r := rng.New(seed)
		nw, err := Geometric(n, radius, r)
		if err != nil {
			t.Fatal(err)
		}
		tl, err := TilingByRadius(nw, radius, 16)
		if err != nil {
			t.Fatal(err)
		}
		_, _, spanX, spanY := boundingBox(nw)
		if sideX, sideY := spanX/float64(tl.Cols()), spanY/float64(tl.Rows()); sideX < radius || sideY < radius {
			t.Fatalf("seed %d: %dx%d cells of %.4f x %.4f, radius %v", seed, tl.Cols(), tl.Rows(), sideX, sideY, radius)
		}
	}
	nw, err := Geometric(2000, 0.007, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := TilingByRadius(nw, 0.007, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Cols() != 32 || tl.Rows() != 32 {
		t.Fatalf("unit-square network: %dx%d grid, want 32x32", tl.Cols(), tl.Rows())
	}
}
