package topology

import (
	"fmt"
	"math"
	"math/bits"

	"m2hew/internal/channel"
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

	tileOf  []int32  // node -> tile index (row-major: ty*cols+tx)
	localOf []int32  // node -> local index within its tile (ascending-ID order)
	order   []NodeID // nodes grouped by tile, ascending ID within each tile
	off     []int32  // tile -> start index into order; len tiles+1

	// Halo layout, per tile: the existing tiles of the 3×3 neighborhood in
	// ascending tile order (always including the tile itself), and the word
	// offset of each neighbor's segment in the tile's halo word space (one
	// extra entry: the total halo word count).
	haloTiles [][]int32
	haloSegs  [][]int32
}

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
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for u := 0; u < n; u++ {
		nd := nw.Node(NodeID(u))
		minX, maxX = math.Min(minX, nd.X), math.Max(maxX, nd.X)
		minY, maxY = math.Min(minY, nd.Y), math.Max(maxY, nd.Y)
	}
	spanX, spanY := maxX-minX, maxY-minY
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
		cols:    cols,
		rows:    rows,
		n:       n,
		tileOf:  make([]int32, n),
		localOf: make([]int32, n),
		order:   make([]NodeID, n),
		off:     make([]int32, tiles+1),
	}
	counts := make([]int32, tiles)
	for u := 0; u < n; u++ {
		nd := nw.Node(NodeID(u))
		t := cellOf(nd.Y, minY, spanY, rows)*cols + cellOf(nd.X, minX, spanX, cols)
		tl.tileOf[u] = int32(t)
		counts[t]++
	}
	for t := 0; t < tiles; t++ {
		tl.off[t+1] = tl.off[t] + counts[t]
	}
	fill := make([]int32, tiles)
	copy(fill, tl.off[:tiles])
	// Ascending u keeps each tile's slice in ascending NodeID order.
	for u := 0; u < n; u++ {
		t := tl.tileOf[u]
		tl.localOf[u] = fill[t] - tl.off[t]
		tl.order[fill[t]] = NodeID(u)
		fill[t]++
	}

	tl.haloTiles = make([][]int32, tiles)
	tl.haloSegs = make([][]int32, tiles)
	for ty := 0; ty < rows; ty++ {
		for tx := 0; tx < cols; tx++ {
			t := ty*cols + tx
			// Row-major scan of the 3×3 neighborhood yields ascending tile
			// indexes directly.
			var hood []int32
			for dy := -1; dy <= 1; dy++ {
				y := ty + dy
				if y < 0 || y >= rows {
					continue
				}
				for dx := -1; dx <= 1; dx++ {
					x := tx + dx
					if x < 0 || x >= cols {
						continue
					}
					hood = append(hood, int32(y*cols+x))
				}
			}
			segs := make([]int32, len(hood)+1)
			for j, s := range hood {
				segs[j+1] = segs[j] + int32(tl.TileWords(int(s)))
			}
			tl.haloTiles[t] = hood
			tl.haloSegs[t] = segs
		}
	}
	return tl, nil
}

// TilingByRadius builds a tiling whose cell side is at least radius — the
// exactness precondition of the sharded engine — aiming for roughly
// targetTiles tiles. The grid is square; with a tiny target the whole
// network becomes one tile, which is legal (the engine degenerates to one
// worker). radius must be positive; coordinates are assumed to span at most
// the unit square (the geometric generators'), so cols is capped at
// ⌊1/radius⌋.
func TilingByRadius(nw *Network, radius float64, targetTiles int) (*Tiling, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("topology: tiling radius %v must be positive", radius)
	}
	if targetTiles < 1 {
		targetTiles = 1
	}
	cols := int(math.Sqrt(float64(targetTiles)))
	if cols < 1 {
		cols = 1
	}
	if byRadius := int(1 / radius); byRadius < cols {
		cols = byRadius
	}
	if cols < 1 {
		cols = 1
	}
	return NewTiling(nw, cols, cols)
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
func (tl *Tiling) TileOf(u NodeID) int { return int(tl.tileOf[u]) }

// LocalIndex returns u's bit position within its tile's segment.
func (tl *Tiling) LocalIndex(u NodeID) int { return int(tl.localOf[u]) }

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

// TileMasks is the halo-local packing of an InboundCandidates table for a
// tiling: for every (listener u, channel c), a bitset over the transmitters
// that can be decoded at u, expressed in u's tile's halo word space (see
// Tiling) instead of global NodeID space. Keeping each listener's row local
// to its 3×3 neighborhood is what makes the table linear in n — the window
// a row can span is bounded by the halo width, not the network width — and
// is what the sharded engine intersects against its per-slot halo
// transmitter masks.
//
// Construction doubles as the exactness check for the tiling: a candidate
// transmitter outside the listener's halo means interference crosses more
// than one tile boundary (the tiling's cells are smaller than the radius),
// and NewTileMasks returns nil so the engine falls back to the
// single-threaded resolvers rather than miss the transmitter.
//
// Like CandidateMasks, rows are indexed r = u·C + c and stored packed to
// their populated word window [Lo(r), Lo(r)+rowLen). The table snapshots
// the candidate table it was built from.
type TileMasks struct {
	tl       *Tiling
	channels int
	lo       []int32
	off      []int32
	words    []uint64
}

// NewTileMasks packs the candidate table into halo-local rows. channels is
// the number of channel rows per listener (max channel ID + 1). budgetWords
// caps the packed size; 0 means unbounded. nil is returned when the budget
// is exceeded, when there is nothing to pack, or when any candidate lies
// outside its listener's halo (the tiling is too fine for the network's
// reach — fall back to the single-threaded engine).
func NewTileMasks(tl *Tiling, cands [][]Candidate, channels, budgetWords int) *TileMasks {
	n := len(cands)
	if tl == nil || n == 0 || n != tl.n || channels <= 0 {
		return nil
	}
	rows := n * channels

	// haloBit returns the candidate's bit position in listener tile t's
	// halo space, or -1 when the candidate's tile is outside t's halo.
	haloBit := func(t int, from NodeID) int {
		s := tl.tileOf[from]
		hood := tl.haloTiles[t]
		for j, h := range hood {
			if h == s {
				return int(tl.haloSegs[t][j])<<6 + int(tl.localOf[from])
			}
		}
		return -1
	}

	// Pass 1: per-row word windows.
	const sentinel = int32(math.MaxInt32)
	lo := make([]int32, rows)
	hi := make([]int32, rows)
	for r := range lo {
		lo[r] = sentinel
		hi[r] = -1
	}
	running := 0
	for u, list := range cands {
		t := int(tl.tileOf[u])
		base := u * channels
		for _, cand := range list {
			bit := haloBit(t, cand.From)
			if bit < 0 {
				return nil // halo violation: tiling too fine for this edge
			}
			vw := int32(bit >> 6)
			for wi, w := range cand.Span.Words() {
				for w != 0 {
					c := wi<<6 + bits.TrailingZeros64(w)
					w &= w - 1
					if c >= channels {
						break
					}
					r := base + c
					if vw < lo[r] {
						lo[r] = vw
					}
					if vw > hi[r] {
						hi[r] = vw
					}
				}
			}
		}
		// Rows of listener u are final once its list is done: keep a running
		// total and stop as soon as the budget is exceeded.
		if budgetWords > 0 {
			for r := base; r < base+channels; r++ {
				if hi[r] >= lo[r] {
					running += int(hi[r]-lo[r]) + 1
				}
			}
			if running > budgetWords {
				return nil
			}
		}
	}

	total := 0
	off := make([]int32, rows+1)
	for r := 0; r < rows; r++ {
		if hi[r] >= lo[r] {
			total += int(hi[r]-lo[r]) + 1
		} else {
			lo[r] = 0
		}
		off[r+1] = int32(total)
	}
	if total == 0 || (budgetWords > 0 && total > budgetWords) {
		return nil
	}

	// Pass 2: fill the packed rows.
	words := make([]uint64, total)
	for u, list := range cands {
		t := int(tl.tileOf[u])
		base := u * channels
		for _, cand := range list {
			bit := haloBit(t, cand.From)
			vw := int32(bit >> 6)
			vb := uint64(1) << uint(bit&63)
			for wi, w := range cand.Span.Words() {
				for w != 0 {
					c := wi<<6 + bits.TrailingZeros64(w)
					w &= w - 1
					if c >= channels {
						break
					}
					r := base + c
					words[int(off[r])+int(vw-lo[r])] |= vb
				}
			}
		}
	}
	return &TileMasks{tl: tl, channels: channels, lo: lo, off: off, words: words}
}

// Row returns listener u's packed transmitter bitset for channel c and the
// index of its first word within u's tile's halo word space: bit i of
// row[w] is the halo bit 64·(lo+w)+i (map it back with Tiling.HaloNode).
// The row is empty when nothing on c can be decoded at u. Shared storage —
// do not modify.
//
//nd:hotpath
func (m *TileMasks) Row(u NodeID, c channel.ID) (row []uint64, lo int) {
	r := int(u)*m.channels + int(c)
	return m.words[m.off[r]:m.off[r+1]], int(m.lo[r])
}

// Tiling returns the tiling the rows are expressed in.
func (m *TileMasks) Tiling() *Tiling { return m.tl }

// Channels returns the number of channel rows per listener.
func (m *TileMasks) Channels() int { return m.channels }

// PackedWords returns the total packed word count — the table's memory
// footprint, which NewTileMasks bounds by its budget.
func (m *TileMasks) PackedWords() int { return len(m.words) }
