package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// randomCands returns an n-listener candidate table ascending by From,
// each listener holding every other node with probability density, with
// spans drawn from universe channels (which may exceed the compiled
// channel count).
func randomCands(r *rng.Source, n, universe int, density float64) [][]topology.Candidate {
	cands := make([][]topology.Candidate, n)
	for u := range cands {
		for v := 0; v < n; v++ {
			if v == u || !r.Bernoulli(density) {
				continue
			}
			var span channel.Set
			for c := 0; c < universe; c++ {
				if r.Bernoulli(0.3) {
					span.Add(channel.ID(c))
				}
			}
			if !span.IsEmpty() {
				cands[u] = append(cands[u], topology.Candidate{From: topology.NodeID(v), Span: span})
			}
		}
	}
	return cands
}

// checkCandMasks pins every row of m to cands: walked entry by entry and
// bit by bit, the row of (u, c) must list exactly u's candidates whose span
// holds c, in candidate order, over strictly ascending non-empty words; a
// channel past the table's count has no row; and the table holds at most
// one entry per candidate-channel pair.
func checkCandMasks(t *testing.T, label string, m *candMasks, cands [][]topology.Candidate, channels int) {
	t.Helper()
	pairs := 0
	for u, list := range cands {
		uid := topology.NodeID(u)
		for c := 0; c < channels; c++ {
			var want, got []topology.NodeID
			for _, cand := range list {
				if cand.Span.Contains(channel.ID(c)) {
					want = append(want, cand.From)
				}
			}
			pairs += len(want)
			prev := int32(-1)
			for _, e := range m.row(uid, channel.ID(c)) {
				if e.w <= prev || e.bits == 0 {
					t.Fatalf("%s: listener %d channel %d: entry (word %d, bits %#x) after word %d", label, u, c, e.w, e.bits, prev)
				}
				prev = e.w
				for b := e.bits; b != 0; b &= b - 1 {
					got = append(got, topology.NodeID(int(e.w)<<6|bits.TrailingZeros64(b)))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: listener %d channel %d: row lists %v, candidates %v", label, u, c, got, want)
			}
		}
		if row := m.row(uid, channel.ID(channels)); row != nil {
			t.Fatalf("%s: listener %d has a row past the %d channels", label, u, channels)
		}
	}
	if len(m.ents) > pairs {
		t.Fatalf("%s: %d entries for %d candidate-channel pairs", label, len(m.ents), pairs)
	}
}

// sameCandMasks reports whether two tables compiled identically.
func sameCandMasks(a, b *candMasks) bool {
	return a.channels == b.channels && slices.Equal(a.off, b.off) && slices.Equal(a.ents, b.ents)
}

// TestCandMasksMatchCandidates compiles random candidate tables — spans on
// channels past 64 and past the compiled count, empty rows, no listeners —
// and pins each table's rows to its candidates (checkCandMasks). The same
// tables recompiled into one reused table must equal their fresh compiles,
// and, once that table has grown to the largest, recompiling allocates
// nothing.
func TestCandMasksMatchCandidates(t *testing.T) {
	r := rng.New(2027)
	shapes := []struct {
		n, universe, channels int
		density               float64
	}{
		{20, 3, 3, 0.3},
		{150, 6, 6, 0.2},    // several NodeID words
		{9, 4, 2, 0.5},      // spans past the channel count
		{130, 80, 80, 0.1},  // spans on channels ≥ 64
		{70, 140, 130, 0.2}, // three span words, some channels past the count
		{40, 3, 3, 0},       // every row empty
		{0, 3, 3, 0},        // no listeners
		{200, 70, 66, 0.3},
	}
	tables := make([][][]topology.Candidate, len(shapes))
	var reused candMasks
	for i, sh := range shapes {
		label := fmt.Sprintf("table %d (n=%d, %d channels)", i, sh.n, sh.channels)
		tables[i] = randomCands(r, sh.n, sh.universe, sh.density)
		var fresh candMasks
		fresh.compile(tables[i], sh.channels)
		checkCandMasks(t, label, &fresh, tables[i], sh.channels)
		reused.compile(tables[i], sh.channels)
		if !sameCandMasks(&reused, &fresh) {
			t.Fatalf("%s: recompiled table differs from a fresh compile", label)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		for i, cands := range tables {
			reused.compile(cands, shapes[i].channels)
		}
	})
	if allocs != 0 {
		t.Fatalf("recompiles into grown storage allocated %.1f objects per run, want 0", allocs)
	}
}

// BenchmarkCandMasksCompile measures the cold candidate-mask build of a
// scale network, built outside the timer.
func BenchmarkCandMasksCompile(b *testing.B) {
	nw, err := topology.GeometricCSR(100_000, 0.007, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	if err := topology.AssignUniformK(nw, 8, 4, rng.New(2)); err != nil {
		b.Fatal(err)
	}
	cands := nw.InboundCandidates()
	b.Run("n100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var m candMasks
			m.compile(cands, 8)
		}
	})
}
