package topology

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/rng"
)

// TestCandidateMasksMatchCandidates runs the packer table test on
// coordinate-free Erdős–Rényi networks (every tiling then holds all nodes
// in one tile) with asymmetric links and restricted spans.
func TestCandidateMasksMatchCandidates(t *testing.T) {
	testMasksMatchCandidates(t, 31, 60, func(r *rng.Source) (*Network, float64, error) {
		nw, err := ErdosRenyi(r.IntN(40)+2, 0.3, r)
		return nw, 0, err
	})
}

// TestTileMasksMatchCandidates runs the packer table test on geometric
// networks, whose 2×2 and radius-matched tilings spread the nodes over
// several tiles, with asymmetric links and restricted spans.
func TestTileMasksMatchCandidates(t *testing.T) {
	testMasksMatchCandidates(t, 47, 40, func(r *rng.Source) (*Network, float64, error) {
		radius := 0.15 + r.Float64()*0.2
		nw, err := Geometric(r.IntN(120)+2, radius, r)
		return nw, radius, err
	})
}

// testMasksMatchCandidates is the packer table test: on each seeded
// network (channels assigned, directions dropped and spans restricted at
// random) it packs the candidate table in the halo bit space of every
// tiling — the single tile, a 2×2 grid and, for geometric networks, the
// radius-matched tiling — and pins every (listener, channel) row to the
// candidates it was packed from. Mapped back through HaloNode, a row must
// list exactly the listener's candidates on that channel in ascending
// NodeID order; on the single tile the bits themselves enumerate them in
// that order, and each bit is the NodeID. It also pins the row layout
// (checkMaskLayout): every table holds the rows of a reference packed in
// NodeID order, the single-tile table is that reference word for word,
// and a multi-tile table lays each tile's rows out as one contiguous span
// in tiling order. Budgets refuse a table exactly below its packed size.
func testMasksMatchCandidates(t *testing.T, seed uint64, trials int, network func(*rng.Source) (*Network, float64, error)) {
	root := rng.New(seed)
	for trial := 0; trial < trials; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			nw, radius, err := network(r)
			if err != nil {
				t.Fatal(err)
			}
			universe := r.IntN(5) + 1
			if err := AssignBernoulli(nw, universe, 0.7, r); err != nil {
				t.Fatal(err)
			}
			if r.Bernoulli(0.4) {
				if err := DropRandomDirections(nw, 0.4, r); err != nil {
					t.Fatal(err)
				}
			}
			if r.Bernoulli(0.3) && universe > 1 {
				if err := RestrictSpansRandomly(nw, 1, r); err != nil {
					t.Fatal(err)
				}
			}
			cands := nw.InboundCandidates()
			channels := 0
			if id, ok := nw.Universe().Max(); ok {
				channels = int(id) + 1
			}
			if channels == 0 {
				t.Skip("no channels assigned")
			}

			tilings := []struct {
				label string
				cols  int
			}{{"single-tile", 1}, {"2x2", 2}}
			for _, tc := range tilings {
				tl, err := NewTiling(nw, tc.cols, tc.cols)
				if err != nil {
					t.Fatal(err)
				}
				m := NewTileMasks(tl, cands, channels, 0)
				if m == nil || m.Tiling() != tl {
					t.Fatalf("%s: build failed", tc.label) // a ≤2×2 grid's halos hold every tile
				}
				checkMaskRows(t, tc.label, m, cands, channels)
				checkMaskLayout(t, tc.label, m, cands, channels)
			}
			if radius > 0 {
				tl, err := TilingByRadius(nw, radius, r.IntN(16)+1)
				if err != nil {
					t.Fatal(err)
				}
				m := NewTileMasks(tl, cands, channels, 0)
				if m == nil {
					t.Fatalf("radius-matched %dx%d tiling: build failed", tl.Cols(), tl.Rows())
				}
				checkMaskRows(t, "radius-matched", m, cands, channels)
				checkMaskLayout(t, "radius-matched", m, cands, channels)
				// A budget of 0 is unbounded, so a one-word table has no refusal to check.
				if w := m.PackedWords(); w > 1 && (NewTileMasks(tl, cands, channels, w-1) != nil || NewTileMasks(tl, cands, channels, w) == nil) {
					t.Fatalf("radius-matched: budget does not refuse exactly below %d packed words", m.PackedWords())
				}
			}
		})
	}
}

// checkMaskRows pins every row of m to cands (see testMasksMatchCandidates).
func checkMaskRows(t *testing.T, label string, m *CandidateMasks, cands [][]Candidate, channels int) {
	t.Helper()
	if m.Channels() != channels {
		t.Fatalf("%s: Channels() = %d, want %d", label, m.Channels(), channels)
	}
	tl := m.Tiling()
	for u := range cands {
		for c := 0; c < channels; c++ {
			var want []NodeID
			for _, cand := range cands[u] {
				if cand.Span.Contains(channel.ID(c)) {
					want = append(want, cand.From)
				}
			}
			row, lo := m.Row(NodeID(u), channel.ID(c))
			var got []NodeID
			for wi, w := range row {
				for ; w != 0; w &= w - 1 {
					bit := (lo+wi)<<6 + bits.TrailingZeros64(w)
					v := tl.HaloNode(tl.TileOf(NodeID(u)), bit)
					if v < 0 {
						t.Fatalf("%s: listener %d channel %d: bit %d maps to padding", label, u, c, bit)
					}
					if tl.Tiles() == 1 && int(v) != bit {
						t.Fatalf("%s: listener %d channel %d: single-tile bit %d is node %d", label, u, c, bit, v)
					}
					got = append(got, v)
				}
			}
			if tl.Tiles() > 1 {
				slices.Sort(got) // halo segments follow tile order, not NodeID order
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: listener %d channel %d: row lists %v, candidates %v", label, u, c, got, want)
			}
		}
	}
}

// nodeOrderTable is the reference packing: m's halo bit space, with rows
// numbered by NodeID and laid out in NodeID order, each row the word
// window of its candidates' bits.
type nodeOrderTable struct {
	lo, off []int32
	words   []uint64
}

func packNodeOrder(m *CandidateMasks, cands [][]Candidate, channels int) nodeOrderTable {
	ref := nodeOrderTable{off: []int32{0}}
	for u, list := range cands {
		for c := 0; c < channels; c++ {
			var on []int
			for _, cand := range list {
				if cand.Span.Contains(channel.ID(c)) {
					on = append(on, m.tl.haloBit(m.tl.TileOf(NodeID(u)), cand.From))
				}
			}
			lo := 0
			if len(on) > 0 {
				lo = slices.Min(on) >> 6
				row := make([]uint64, slices.Max(on)>>6-lo+1)
				for _, b := range on {
					row[b>>6-lo] |= 1 << (b & 63)
				}
				ref.words = append(ref.words, row...)
			}
			ref.lo = append(ref.lo, int32(lo))
			ref.off = append(ref.off, int32(len(ref.words)))
		}
	}
	return ref
}

// checkMaskLayout pins m's rows to the reference packed in NodeID order
// (see testMasksMatchCandidates). Every row — looked up by NodeID with Row
// and by position with RowAt — holds the reference row's words. On a
// single tile the whole table is the reference, word for word. Walking the
// tiles in order and each tile's nodes in local order visits positions
// 0, 1, … and rows that start where the previous one ended, so each tile's
// rows form one contiguous ascending span.
func checkMaskLayout(t *testing.T, label string, m *CandidateMasks, cands [][]Candidate, channels int) {
	t.Helper()
	ref := packNodeOrder(m, cands, channels)
	tl := m.Tiling()
	if tl.Tiles() == 1 {
		if !slices.Equal(m.lo, ref.lo) || !slices.Equal(m.off, ref.off) || !slices.Equal(m.words, ref.words) {
			t.Fatalf("%s: table differs from the NodeID-order packing", label)
		}
	}
	sameRow := func(u, p, c int) {
		r := u*channels + c
		want, wantLo := ref.words[ref.off[r]:ref.off[r+1]], int(ref.lo[r])
		row, lo := m.Row(NodeID(u), channel.ID(c))
		at, atLo := m.RowAt(p, channel.ID(c))
		if !slices.Equal(row, want) || lo != wantLo || !slices.Equal(at, want) || atLo != wantLo {
			t.Fatalf("%s: listener %d (position %d) channel %d: Row %v@%d, RowAt %v@%d, reference %v@%d",
				label, u, p, c, row, lo, at, atLo, want, wantLo)
		}
	}
	p, next := 0, int32(0)
	for tile := 0; tile < tl.Tiles(); tile++ {
		for li, u := range tl.TileNodes(tile) {
			if li != tl.LocalIndex(u) {
				t.Fatalf("%s: tile %d lists node %d at %d, local index %d", label, tile, u, li, tl.LocalIndex(u))
			}
			for c := 0; c < channels; c++ {
				sameRow(int(u), p, c)
				r := p*channels + c
				if m.off[r] != next {
					t.Fatalf("%s: tile %d node %d channel %d: row starts at word %d, previous row ended at %d", label, tile, u, c, m.off[r], next)
				}
				next = m.off[r+1]
			}
			p++
		}
	}
	if p != len(cands) || int(next) != m.PackedWords() {
		t.Fatalf("%s: tiles cover %d positions and %d words, want %d and %d", label, p, next, len(cands), m.PackedWords())
	}
}

// TestCandidateMasksBudget verifies the size gate on a coordinate-free
// network's single tile: a budget below the packed size rejects the build,
// at or above accepts it.
func TestCandidateMasksBudget(t *testing.T) {
	r := rng.New(5)
	nw, err := ErdosRenyi(30, 0.5, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := AssignUniformK(nw, 4, 2, r); err != nil {
		t.Fatal(err)
	}
	tl, err := NewTiling(nw, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := NewTileMasks(tl, nw.InboundCandidates(), 4, 0)
	if m == nil || m.PackedWords() == 0 {
		t.Fatal("expected a non-empty packed table")
	}
	if got := NewTileMasks(tl, nw.InboundCandidates(), 4, m.PackedWords()-1); got != nil {
		t.Fatal("under-budget build should return nil")
	}
	if got := NewTileMasks(tl, nw.InboundCandidates(), 4, m.PackedWords()); got == nil {
		t.Fatal("at-budget build should succeed")
	}
}

// TestCandidateMasksRowWindows checks the CSR packing is genuinely
// windowed: a clique of two far-apart ID clusters must not store the dead
// words between a listener's low and high neighbors unless both exist.
func TestCandidateMasksRowWindows(t *testing.T) {
	// Line topology 0-1-...-199: every row covers at most two neighbor IDs,
	// so each packed row is at most 2 words even though the range is 4.
	nw, err := Line(200)
	if err != nil {
		t.Fatal(err)
	}
	if err := AssignHomogeneous(nw, 1); err != nil {
		t.Fatal(err)
	}
	tl, err := NewTiling(nw, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := NewTileMasks(tl, nw.InboundCandidates(), 1, 0)
	if m == nil {
		t.Fatal("build failed")
	}
	for u := 0; u < 200; u++ {
		row, _ := m.Row(NodeID(u), 0)
		if len(row) > 2 {
			t.Fatalf("listener %d: row spans %d words; window not trimmed", u, len(row))
		}
	}
	// 200 nodes × ≤2 words bounds the whole table well under 200×4.
	if m.PackedWords() > 400 {
		t.Fatalf("packed size %d exceeds the windowed bound", m.PackedWords())
	}
}

// BenchmarkNewTileMasks100k times the multi-tile engine's table packer on
// the repository benchmark's scale-100k network: 100k nodes at radius
// 0.007 (mean degree about 15), uniform 4-of-8 channels and the
// radius-matched tiling aiming at 1024 tiles, at the engine's multi-tile
// budget of 128 words per node. Graph, assignment, tiling and candidate
// table are built outside the timer.
func BenchmarkNewTileMasks100k(b *testing.B) {
	const (
		n      = 100_000
		radius = 0.007
	)
	r := rng.New(1)
	nw, err := GeometricConnected(n, radius, r, 100)
	if err != nil {
		b.Fatal(err)
	}
	if err := AssignUniformK(nw, 8, 4, r); err != nil {
		b.Fatal(err)
	}
	tl, err := TilingByRadius(nw, radius, 1024)
	if err != nil {
		b.Fatal(err)
	}
	cands := nw.InboundCandidates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if NewTileMasks(tl, cands, 8, 128*n) == nil {
			b.Fatal("packer refused the table")
		}
	}
}
