package topology

import (
	"cmp"
	"slices"

	"m2hew/internal/channel"
)

// DeriveGeometricCandidates re-derives the directed reception structure of a
// geometric snapshot without constructing a Network: nodes at their current
// positions, radius-limited adjacency found by the same grid-bucket scan
// Geometric uses (so the edge visit order — ascending first index, then
// second — matches the all-pairs scan exactly), and per-link spans computed
// as A(u) ∩ A(v) minus each endpoint's blocked set.
//
// It returns the inbound-candidate table: cands[u] in ascending From order,
// the order InboundCandidates guarantees. Its rows are the snapshot's
// discoverable links (v, u), numbered by listener.
//
// active, if non-nil, excludes inactive endpoints from every edge; blocked,
// if non-nil, holds per-node channel sets currently unusable (e.g. occupied
// by a primary user) that are subtracted from every incident span. Links
// whose span empties out are dropped entirely. Span overrides and dropped
// directions do not apply: snapshots model plain geometric propagation.
//
// This is the per-epoch rebuild of the dynamics layer; a caller deriving
// many snapshots keeps a GeometricDeriver, whose Derive reuses the edge
// scratch between calls. Like InboundCandidates, the table is one
// candidate arena and one span-word arena (both directions of an edge
// share one span), with every row's capacity capped at its length so an
// append to one row cannot overwrite the next. The result outlives the
// call inside memoized epoch snapshots, so it is deliberately not
// //nd:hotpath; the per-slot reception loops that consume the tables remain
// allocation-free.
func DeriveGeometricCandidates(nodes []Node, radius float64, active []bool, blocked []channel.Set) [][]Candidate {
	var d GeometricDeriver
	return d.Derive(nodes, radius, active, blocked)
}

// GeometricDeriver holds DeriveGeometricCandidates' scratch — the kept
// edges of a snapshot, in visit order — for reuse across snapshots. The
// zero value is ready; a deriver serves one goroutine at a time.
type GeometricDeriver struct {
	edges  [][2]int32
	counts []int32
	span   []uint64
}

// Derive is DeriveGeometricCandidates reusing d's scratch. The returned
// table never aliases it.
func (d *GeometricDeriver) Derive(nodes []Node, radius float64, active []bool, blocked []channel.Set) [][]Candidate {
	n := len(nodes)
	// Pass 1: keep the edges with both endpoints active and a non-empty
	// span, in visit order, counting row lengths and span words.
	d.edges = d.edges[:0]
	d.counts = slices.Grow(d.counts[:0], n+1)[:n+1]
	counts := d.counts
	clear(counts)
	words := 0
	visitGeometricPairs(nodes, radius, func(a, b int32) {
		if active != nil && (!active[a] || !active[b]) {
			return
		}
		span := derivedSpan(nodes, blocked, a, b, d.span)
		d.span = span.Words()[:0]
		if span.IsEmpty() {
			return
		}
		d.edges = append(d.edges, [2]int32{a, b})
		counts[a+1]++
		counts[b+1]++
		words += len(span.Words())
	})
	for u := 1; u <= n; u++ {
		counts[u] += counts[u-1]
	}
	// Pass 2: resolve each kept edge's span into the word arena and place
	// both directions through per-row cursors. Row u receives its partners
	// in edge visit order — those below u during their own (smaller)
	// first-index scans, those above u during u's — so it ascends by From,
	// as appending did.
	arena := make([]Candidate, counts[n])
	spanArena := make([]uint64, words)
	table := make([][]Candidate, n)
	for u := range table {
		table[u] = arena[counts[u]:counts[u+1]:counts[u+1]]
	}
	cur := counts[:n]
	words = 0
	for _, e := range d.edges {
		a, b := e[0], e[1]
		span := derivedSpan(nodes, blocked, a, b, spanArena[words:words])
		span = channel.FromWords(slices.Clip(span.Words()))
		words += len(span.Words())
		arena[cur[a]] = Candidate{From: NodeID(b), Span: span}
		cur[a]++
		arena[cur[b]] = Candidate{From: NodeID(a), Span: span}
		cur[b]++
	}
	return table
}

// derivedSpan returns A(a) ∩ A(b) minus both endpoints' blocked sets, with
// the intersection's word length, written into buf's backing array (grown
// if short).
func derivedSpan(nodes []Node, blocked []channel.Set, a, b int32, buf []uint64) channel.Set {
	span := nodes[a].Avail.IntersectInto(nodes[b].Avail, channel.ArenaSet(buf))
	words := span.Words()
	if blocked != nil {
		for _, bl := range [2][]uint64{blocked[a].Words(), blocked[b].Words()} {
			for i := range min(len(words), len(bl)) {
				words[i] &^= bl[i]
			}
		}
	}
	return span
}

// CompareLinks orders links ascending by (From, To), the order
// DiscoverableLinks reports.
func CompareLinks(a, b Link) int {
	if a.From != b.From {
		return cmp.Compare(a.From, b.From)
	}
	return cmp.Compare(a.To, b.To)
}
