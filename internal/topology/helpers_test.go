package topology

import (
	"math"
	"testing"

	"m2hew/internal/channel"
)

// parseSet parses a channel-set literal, failing the test on error.
func parseSet(t *testing.T, text string) channel.Set {
	t.Helper()
	s, err := channel.ParseSet(text)
	if err != nil {
		t.Fatalf("parse set %q: %v", text, err)
	}
	return s
}

// geometricEdgesNaive is the reference all-pairs scan that the differential
// tests pin visitGeometricPairs to.
func geometricEdgesNaive(nodes []Node, radius float64) [][2]NodeID {
	var edges [][2]NodeID
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			dx, dy := nodes[i].X-nodes[j].X, nodes[i].Y-nodes[j].Y
			if math.Hypot(dx, dy) <= radius {
				edges = append(edges, [2]NodeID{NodeID(i), NodeID(j)})
			}
		}
	}
	return edges
}

// visitedPairs collects the pairs visitGeometricPairs emits, in emission
// order.
func visitedPairs(nodes []Node, radius float64) [][2]NodeID {
	var edges [][2]NodeID
	visitGeometricPairs(nodes, radius, func(i, j int32) {
		edges = append(edges, [2]NodeID{NodeID(i), NodeID(j)})
	})
	return edges
}

// inboundCandidatesNaive is the original row-at-a-time build, the
// differential-test reference for the flat shared-span InboundCandidates.
func (nw *Network) inboundCandidatesNaive() [][]Candidate {
	table := make([][]Candidate, len(nw.nodes))
	for u := range nw.nodes {
		uid := NodeID(u)
		var cands []Candidate
		for _, v := range nw.adj[u] {
			if !nw.Reaches(v, uid) {
				continue
			}
			span := nw.Span(uid, v)
			if span.IsEmpty() {
				continue
			}
			cands = append(cands, Candidate{From: v, Span: span})
		}
		table[u] = cands
	}
	return table
}
