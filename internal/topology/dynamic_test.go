package topology

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/rng"
)

// deriveNaive is DeriveGeometricCandidates restated over all ordered
// pairs: v → u is a candidate when both endpoints are active, they lie
// within radius, and their common channels minus both blocked sets are
// non-empty. Scanning senders in the outer loop emits every row in
// ascending From order and the links sorted by (From, To).
func deriveNaive(nodes []Node, radius float64, active []bool, blocked []channel.Set) ([][]Candidate, []Link) {
	cands := make([][]Candidate, len(nodes))
	var links []Link
	for v := range nodes {
		for u := range nodes {
			if u == v || (active != nil && (!active[u] || !active[v])) {
				continue
			}
			if math.Hypot(nodes[u].X-nodes[v].X, nodes[u].Y-nodes[v].Y) > radius {
				continue
			}
			span := nodes[u].Avail.Intersect(nodes[v].Avail)
			if blocked != nil {
				span = span.Minus(blocked[u]).Minus(blocked[v])
			}
			if span.IsEmpty() {
				continue
			}
			cands[u] = append(cands[u], Candidate{From: NodeID(v), Span: span})
			links = append(links, Link{From: NodeID(v), To: NodeID(u)})
		}
	}
	return cands, links
}

// TestDeriveGeometricCandidatesMatchesNaive pins the per-epoch rebuild to
// the all-pairs reference across radii, with and without an activity
// filter and blocked channels — including blocked sets that empty whole
// spans, whose links must be dropped in both directions.
func TestDeriveGeometricCandidatesMatchesNaive(t *testing.T) {
	r := rng.New(21)
	for _, tc := range []struct {
		n      int
		radius float64
	}{
		{1, 0.3}, {12, 0}, {12, 1.5}, {40, 0.3}, {150, 0.12}, {300, 0.07},
	} {
		nodes := make([]Node, tc.n)
		for i := range nodes {
			avail := channel.NewSet()
			for c := channel.ID(0); c < 4; c++ {
				if r.Bernoulli(0.5) {
					avail = avail.Union(channel.NewSet(c))
				}
			}
			nodes[i] = Node{ID: NodeID(i), X: r.Float64(), Y: r.Float64(), Avail: avail}
		}
		active := make([]bool, tc.n)
		blocked := make([]channel.Set, tc.n)
		for i := range active {
			active[i] = r.Bernoulli(0.7)
			blocked[i] = channel.NewSet()
			if r.Bernoulli(0.3) {
				blocked[i] = channel.NewSet(channel.ID(r.IntN(4)), channel.ID(r.IntN(4)))
			}
		}
		for _, filter := range []struct {
			name    string
			active  []bool
			blocked []channel.Set
		}{
			{"plain", nil, nil},
			{"active", active, nil},
			{"blocked", nil, blocked},
			{"active+blocked", active, blocked},
		} {
			label := fmt.Sprintf("n=%d radius=%v %s", tc.n, tc.radius, filter.name)
			gotCands := DeriveGeometricCandidates(nodes, tc.radius, filter.active, filter.blocked)
			wantCands, wantLinks := deriveNaive(nodes, tc.radius, filter.active, filter.blocked)
			// The rows' link set: (v, u) for every v in gotCands[u].
			var gotLinks []Link
			for u, row := range gotCands {
				for _, c := range row {
					gotLinks = append(gotLinks, Link{From: c.From, To: NodeID(u)})
				}
			}
			slices.SortFunc(gotLinks, CompareLinks)
			if !slices.Equal(gotLinks, wantLinks) {
				t.Fatalf("%s: links\n got %v\nwant %v", label, gotLinks, wantLinks)
			}
			if len(gotCands) != len(wantCands) {
				t.Fatalf("%s: %d candidate rows, want %d", label, len(gotCands), len(wantCands))
			}
			for u := range wantCands {
				if !slices.EqualFunc(gotCands[u], wantCands[u], func(a, b Candidate) bool {
					return a.From == b.From && a.Span.Equal(b.Span)
				}) {
					t.Fatalf("%s: node %d candidates\n got %v\nwant %v", label, u, gotCands[u], wantCands[u])
				}
			}
		}
	}
}
