package topology

import (
	"cmp"

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
// This is the per-epoch rebuild of the dynamics layer. It allocates its
// result tables (they outlive the call inside memoized epoch snapshots), so
// it is deliberately not //nd:hotpath; the per-slot reception loops that
// consume the tables remain allocation-free.
func DeriveGeometricCandidates(nodes []Node, radius float64, active []bool, blocked []channel.Set) [][]Candidate {
	cands := make([][]Candidate, len(nodes))
	visitGeometricPairs(nodes, radius, func(a, b int32) {
		i, j := NodeID(a), NodeID(b)
		if active != nil && (!active[i] || !active[j]) {
			return
		}
		span := nodes[i].Avail.Intersect(nodes[j].Avail)
		if blocked != nil {
			if !blocked[i].IsEmpty() {
				span = span.Minus(blocked[i])
			}
			if !blocked[j].IsEmpty() {
				span = span.Minus(blocked[j])
			}
		}
		if span.IsEmpty() {
			return
		}
		// Both directions share one span set; Candidate.Span is read-only by
		// contract. Appending while scanning edges in ascending (i, j) order
		// leaves every cands[u] in ascending From order: partners below u were
		// appended during their own (smaller) first-index scans, partners
		// above u during u's scan, both ascending.
		cands[i] = append(cands[i], Candidate{From: j, Span: span})
		cands[j] = append(cands[j], Candidate{From: i, Span: span})
	})
	return cands
}

// CompareLinks orders links ascending by (From, To), the order
// DiscoverableLinks reports.
func CompareLinks(a, b Link) int {
	if a.From != b.From {
		return cmp.Compare(a.From, b.From)
	}
	return cmp.Compare(a.To, b.To)
}
