package topology

import (
	"fmt"
	"slices"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/rng"
)

// TestCandidateMasksMatchCandidates pins every (listener, channel) row to
// the candidate table it was packed from: bit v is set iff some candidate
// with From v has the channel in its span.
func TestCandidateMasksMatchCandidates(t *testing.T) {
	root := rng.New(31)
	for trial := 0; trial < 60; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			n := r.IntN(40) + 2
			universe := r.IntN(5) + 1
			nw, err := ErdosRenyi(n, 0.3, r)
			if err != nil {
				t.Fatal(err)
			}
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
			m := NewCandidateMasks(cands, channels, 0)
			if m == nil {
				t.Fatal("unbudgeted build returned nil")
			}
			if m.Channels() != channels {
				t.Fatalf("Channels() = %d, want %d", m.Channels(), channels)
			}

			for u := 0; u < n; u++ {
				for c := 0; c < channels; c++ {
					want := make(map[NodeID]bool)
					for _, cand := range cands[u] {
						if cand.Span.Contains(channel.ID(c)) {
							want[cand.From] = true
						}
					}
					row, lo := m.Row(NodeID(u), channel.ID(c))
					got := make(map[NodeID]bool)
					for wi, w := range row {
						for b := 0; b < 64; b++ {
							if w&(1<<uint(b)) != 0 {
								got[NodeID((lo+wi)*64+b)] = true
							}
						}
					}
					if len(got) != len(want) {
						t.Fatalf("listener %d channel %d: mask has %d transmitters, want %d", u, c, len(got), len(want))
					}
					for v := range want {
						if !got[v] {
							t.Fatalf("listener %d channel %d: transmitter %d missing from mask", u, c, v)
						}
					}
				}
			}
		})
	}
}

// TestCandidateMasksBudget verifies the size gate: a budget below the
// packed size rejects the build, at or above accepts it.
func TestCandidateMasksBudget(t *testing.T) {
	r := rng.New(5)
	nw, err := ErdosRenyi(30, 0.5, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := AssignUniformK(nw, 4, 2, r); err != nil {
		t.Fatal(err)
	}
	m := NewCandidateMasks(nw.InboundCandidates(), 4, 0)
	if m == nil || m.PackedWords() == 0 {
		t.Fatal("expected a non-empty packed table")
	}
	if got := NewCandidateMasks(nw.InboundCandidates(), 4, m.PackedWords()-1); got != nil {
		t.Fatal("under-budget build should return nil")
	}
	if got := NewCandidateMasks(nw.InboundCandidates(), 4, m.PackedWords()); got == nil {
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
	m := NewCandidateMasks(nw.InboundCandidates(), 1, 0)
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

// randomCandTable returns an n-listener candidate table with ascending
// From lists; a listener's list is empty with probability pEmpty, and spans
// draw from universe channels, which may exceed the packed channel count.
func randomCandTable(r *rng.Source, n, universe int, density, pEmpty float64) [][]Candidate {
	cands := make([][]Candidate, n)
	for u := range cands {
		if r.Bernoulli(pEmpty) {
			continue
		}
		for v := 0; v < n; v++ {
			if v == u || !r.Bernoulli(density) {
				continue
			}
			var span channel.Set
			for c := 0; c < universe; c++ {
				if r.Bernoulli(0.5) {
					span.Add(channel.ID(c))
				}
			}
			if !span.IsEmpty() {
				cands[u] = append(cands[u], Candidate{From: NodeID(v), Span: span})
			}
		}
	}
	return cands
}

// sameMasks reports whether two tables pack identically.
func sameMasks(a, b *CandidateMasks) bool {
	return a.channels == b.channels && slices.Equal(a.lo, b.lo) &&
		slices.Equal(a.off, b.off) && slices.Equal(a.words, b.words)
}

// TestCandidateMasksRebuildInPlace rebuilds one table in place over a
// sequence that grows, shrinks, changes channel count, has empty rows, is
// entirely empty, has no listeners, and overruns its budget; after every
// step the table must equal a fresh NewCandidateMasks of the same input
// (and both must refuse the same inputs).
func TestCandidateMasksRebuildInPlace(t *testing.T) {
	r := rng.New(77)
	type step struct {
		n, universe, channels int
		density, pEmpty       float64
		budget                int
	}
	steps := []step{
		{n: 20, universe: 3, channels: 3, density: 0.3, pEmpty: 0.2},
		{n: 150, universe: 6, channels: 6, density: 0.2, pEmpty: 0.1},   // grows past two words
		{n: 9, universe: 4, channels: 2, density: 0.5, pEmpty: 0.3},     // shrinks; spans past the channel count
		{n: 70, universe: 5, channels: 5, density: 0.1, pEmpty: 0.6},    // many empty rows
		{n: 40, universe: 3, channels: 3, density: 0, pEmpty: 0},        // every row empty
		{n: 0, universe: 3, channels: 3},                                // nothing to pack
		{n: 130, universe: 6, channels: 6, density: 0.3, budget: 50},    // over budget
		{n: 90, universe: 6, channels: 7, density: 0.15, pEmpty: 0.2},   // after a refused rebuild
		{n: 1, universe: 2, channels: 2},                                // a lone listener
		{n: 128, universe: 8, channels: 8, density: 0.25, pEmpty: 0.05}, // exactly two words
	}
	m := new(CandidateMasks)
	for i, s := range steps {
		cands := randomCandTable(r, s.n, s.universe, s.density, s.pEmpty)
		fresh := NewCandidateMasks(cands, s.channels, s.budget)
		ok := m.Rebuild(cands, s.channels, s.budget)
		if ok != (fresh != nil) {
			t.Fatalf("step %d: Rebuild ok=%v, NewCandidateMasks nil=%v", i, ok, fresh == nil)
		}
		if ok && !sameMasks(m, fresh) {
			t.Fatalf("step %d: in-place rebuild differs from a fresh build", i)
		}
	}
}

// TestCandidateMasksRebuildAllocs: once a table has grown to the largest
// input, rebuilding it in place from smaller ones allocates nothing.
func TestCandidateMasksRebuildAllocs(t *testing.T) {
	r := rng.New(78)
	big := randomCandTable(r, 200, 8, 0.3, 0)
	small := [][][]Candidate{
		randomCandTable(r, 150, 8, 0.2, 0.1),
		randomCandTable(r, 30, 6, 0.5, 0.3),
		randomCandTable(r, 200, 8, 0.05, 0.5),
	}
	m := NewCandidateMasks(big, 8, 0)
	if m == nil {
		t.Fatal("unbudgeted build returned nil")
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, cands := range small {
			if !m.Rebuild(cands, 8, 0) {
				t.Fatal("rebuild refused an in-budget table")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("in-place rebuilds allocated %.1f objects per run, want 0", allocs)
	}
}
