package topology

import (
	"fmt"
	"testing"

	"m2hew/internal/rng"
)

// TestTilingPartition pins the structural invariants of the partitioner:
// every node lands in exactly one tile, tile node lists ascend, local
// indexes match positions, halo neighborhoods ascend and include the tile
// itself, and halo segments are word-aligned and sized to their tiles.
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
			if tl.N() != n || tl.Tiles() != cols*rows {
				t.Fatalf("N=%d Tiles=%d, want %d, %d", tl.N(), tl.Tiles(), n, cols*rows)
			}

			seen := make([]bool, n)
			total := 0
			for tile := 0; tile < tl.Tiles(); tile++ {
				nodes := tl.TileNodes(tile)
				total += len(nodes)
				for li, u := range nodes {
					if seen[u] {
						t.Fatalf("node %d in two tiles", u)
					}
					seen[u] = true
					if tl.TileOf(u) != tile {
						t.Fatalf("TileOf(%d) = %d, want %d", u, tl.TileOf(u), tile)
					}
					if tl.LocalIndex(u) != li {
						t.Fatalf("LocalIndex(%d) = %d, want %d", u, tl.LocalIndex(u), li)
					}
					if li > 0 && nodes[li-1] >= u {
						t.Fatalf("tile %d nodes not ascending: %v", tile, nodes)
					}
				}
				if want := (len(nodes) + 63) / 64; tl.TileWords(tile) != want {
					t.Fatalf("TileWords(%d) = %d, want %d", tile, tl.TileWords(tile), want)
				}

				hood := tl.HaloTiles(tile)
				segs := tl.HaloSegments(tile)
				if len(segs) != len(hood)+1 {
					t.Fatalf("tile %d: %d segments for %d halo tiles", tile, len(segs), len(hood))
				}
				self := false
				for j, s := range hood {
					if int(s) == tile {
						self = true
					}
					if j > 0 && hood[j-1] >= s {
						t.Fatalf("tile %d halo not ascending: %v", tile, hood)
					}
					if got := int(segs[j+1] - segs[j]); got != tl.TileWords(int(s)) {
						t.Fatalf("tile %d segment %d: %d words, want %d", tile, j, got, tl.TileWords(int(s)))
					}
				}
				if !self {
					t.Fatalf("tile %d halo %v omits itself", tile, hood)
				}
				if tl.HaloWords(tile) != int(segs[len(segs)-1]) {
					t.Fatalf("HaloWords(%d) = %d, want %d", tile, tl.HaloWords(tile), segs[len(segs)-1])
				}

				// HaloNode inverts (tile, bit): every real node round-trips,
				// padding bits return -1.
				for j, s := range hood {
					for li, u := range tl.TileNodes(int(s)) {
						bit := int(segs[j])<<6 + li
						if got := tl.HaloNode(tile, bit); got != u {
							t.Fatalf("HaloNode(%d,%d) = %d, want %d", tile, bit, got, u)
						}
					}
					pad := int(segs[j])<<6 + len(tl.TileNodes(int(s)))
					if pad < int(segs[j+1])<<6 {
						if got := tl.HaloNode(tile, pad); got != -1 {
							t.Fatalf("HaloNode(%d,%d) = %d, want -1 (padding)", tile, pad, got)
						}
					}
				}
			}
			if total != n {
				t.Fatalf("tiles hold %d nodes, want %d", total, n)
			}
		})
	}
}

// haloBitScan is the reference haloBit: a linear scan of t's halo tiles
// for v's tile.
func haloBitScan(tl *Tiling, t int, v NodeID) int {
	for j, h := range tl.HaloTiles(t) {
		if int(h) == tl.TileOf(v) {
			return int(tl.HaloSegments(t)[j])<<6 + tl.LocalIndex(v)
		}
	}
	return -1
}

// TestHaloBitMatchesScan pins haloBit's 3×3 grid-offset lookup to the
// linear scan of the halo tiles for every (tile, node) pair, on grids that
// include 1×1, single-row and single-column shapes and tiles on every
// boundary, with empty tiles among them.
func TestHaloBitMatchesScan(t *testing.T) {
	r := rng.New(77)
	nw, err := Geometric(300, 0.1, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, grid := range [][2]int{{1, 1}, {1, 6}, {6, 1}, {2, 2}, {3, 5}, {7, 4}, {12, 12}} {
		tl, err := NewTiling(nw, grid[0], grid[1])
		if err != nil {
			t.Fatal(err)
		}
		inside := 0
		for tile := 0; tile < tl.Tiles(); tile++ {
			for v := NodeID(0); int(v) < nw.N(); v++ {
				got, want := tl.haloBit(tile, v), haloBitScan(tl, tile, v)
				if got != want {
					t.Fatalf("%dx%d grid: haloBit(%d, %d) = %d, scan %d", grid[0], grid[1], tile, v, got, want)
				}
				if got >= 0 {
					inside++
				}
			}
		}
		if inside == 0 || (tl.Tiles() > 9 && inside == tl.Tiles()*nw.N()) {
			t.Fatalf("%dx%d grid: %d of %d pairs inside a halo; want both cases", grid[0], grid[1], inside, tl.Tiles()*nw.N())
		}
	}
}

// TestTilingGeometryRespectsRadius pins the exactness precondition the
// sharded engine relies on: with cell side ≥ radius, both endpoints of
// every edge are in each other's 3×3 halo, so TileMasks builds cleanly.
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
		channels := 6
		m := NewTileMasks(tl, nw.InboundCandidates(), channels, 0)
		if m == nil && nw.EdgeCount() > 0 {
			// Only legal cause: genuinely empty candidate table.
			empty := true
			for _, l := range nw.InboundCandidates() {
				if len(l) > 0 {
					empty = false
				}
			}
			if !empty {
				t.Fatalf("trial %d: TileMasks nil despite radius-respecting tiling (n=%d radius=%v tiles=%d)",
					trial, n, radius, tl.Tiles())
			}
		}
	}
}

// TestTilingByRadiusCellSide pins TilingByRadius's promise on networks
// whose bounding box is narrower than the unit square: the cells NewTiling
// cuts from that box are at least radius wide on both axes, so the
// halo-local masks build on every seed. A network spanning the square
// keeps the full target grid.
func TestTilingByRadiusCellSide(t *testing.T) {
	const n, radius = 60, 0.25
	for seed := uint64(1); seed <= 200; seed++ {
		r := rng.New(seed)
		nw, err := Geometric(n, radius, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := AssignUniformK(nw, 4, 2, r); err != nil {
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
		if NewTileMasks(tl, nw.InboundCandidates(), 4, 0) == nil {
			t.Fatalf("seed %d: halo-local masks refused a %dx%d radius-matched tiling", seed, tl.Cols(), tl.Rows())
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

// TestTileMasksHaloViolationFallsBack pins the safety valve: a tiling finer
// than the radius (edges escaping the 3×3 halo) must yield nil, never a
// silently truncated table.
func TestTileMasksHaloViolationFallsBack(t *testing.T) {
	r := rng.New(53)
	// Long-radius graph: nearly a clique in the unit square.
	nw, err := Geometric(60, 0.9, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := AssignUniformK(nw, 4, 2, r); err != nil {
		t.Fatal(err)
	}
	tl, err := NewTiling(nw, 8, 8) // cell side ~1/8 « radius
	if err != nil {
		t.Fatal(err)
	}
	if m := NewTileMasks(tl, nw.InboundCandidates(), 4, 0); m != nil {
		t.Fatal("expected nil TileMasks for halo-violating tiling")
	}
}

// TestTileMasksBudget pins the word-budget fallback.
func TestTileMasksBudget(t *testing.T) {
	r := rng.New(59)
	nw, err := Geometric(80, 0.2, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := AssignUniformK(nw, 4, 2, r); err != nil {
		t.Fatal(err)
	}
	tl, err := TilingByRadius(nw, 0.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	m := NewTileMasks(tl, nw.InboundCandidates(), 4, 0)
	if m == nil {
		t.Fatal("unbudgeted build returned nil")
	}
	if got := NewTileMasks(tl, nw.InboundCandidates(), 4, m.PackedWords()); got == nil {
		t.Fatal("build at exactly the packed size should succeed")
	}
	if got := NewTileMasks(tl, nw.InboundCandidates(), 4, m.PackedWords()-1); got != nil {
		t.Fatal("build under the packed size should return nil")
	}
}
