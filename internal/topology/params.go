package topology

import (
	"fmt"
	"math"
	"math/bits"

	"m2hew/internal/channel"
)

// Params are the derived analysis parameters of a network, exactly the
// quantities in the paper's Section II. The discovery algorithms do not read
// these (the paper's nodes don't know N, S or ρ); they exist for bound
// computation and experiment reporting.
type Params struct {
	// N is the number of nodes.
	N int `json:"n"`
	// UniverseSize is |universal channel set|.
	UniverseSize int `json:"universeSize"`
	// S is the size of the largest available channel set, max_u |A(u)|.
	S int `json:"s"`
	// Delta is the maximum degree of any node on any channel,
	// max_u max_{c∈A(u)} Δ(u,c).
	Delta int `json:"delta"`
	// MaxGraphDegree is the plain graph degree maximum (≥ Delta).
	MaxGraphDegree int `json:"maxGraphDegree"`
	// Rho is the minimum span-ratio over all directed links:
	// min over links (u,v) of |span(u,v)| / |A(v)|. It lies in [1/S, 1];
	// 1 means fully homogeneous. Rho is 1 (vacuously) for edgeless networks.
	Rho float64 `json:"rho"`
	// Edges is the number of undirected edges; DirectedLinks = 2·Edges.
	Edges int `json:"edges"`
	// DiscoverableLinks counts directed links with non-empty span.
	DiscoverableLinks int `json:"discoverableLinks"`
	// EmptySpanLinks counts directed links no algorithm can cover.
	EmptySpanLinks int `json:"emptySpanLinks"`
}

// ComputeParams derives Params from the network. It walks the adjacency
// and the available sets' words directly, so it allocates nothing beyond a
// stale universe's refresh (and one span per link that carries a span
// override).
func (nw *Network) ComputeParams() Params {
	p := Params{
		N:            nw.N(),
		UniverseSize: nw.universeSet().Size(),
		Rho:          1,
		Edges:        nw.EdgeCount(),
	}
	for u := range nw.nodes {
		uid := NodeID(u)
		avail := nw.nodes[u].Avail
		if size := avail.Size(); size > p.S {
			p.S = size
		}
		if d := len(nw.adj[u]); d > p.MaxGraphDegree {
			p.MaxGraphDegree = d
		}
		for wi, w := range avail.Words() {
			for w != 0 {
				c := channel.ID(wi*64 + bits.TrailingZeros64(w))
				w &= w - 1
				if d := nw.DegreeOn(uid, c); d > p.Delta {
					p.Delta = d
				}
			}
		}
	}
	sawLink := false
	for u := range nw.nodes {
		uid := NodeID(u)
		for _, v := range nw.adj[u] {
			if !nw.undropped(uid, v) {
				continue
			}
			size := nw.spanSize(uid, v)
			if size == 0 {
				p.EmptySpanLinks++
				continue
			}
			p.DiscoverableLinks++
			// Paper: span-ratio of (u,v) is |span(u,v)| / |A(v)|.
			ratio := float64(size) / float64(nw.nodes[v].Avail.Size())
			if !sawLink || ratio < p.Rho {
				p.Rho = ratio
				sawLink = true
			}
		}
	}
	return p
}

// CheckRhoBounds verifies the paper's claim that the span-ratio of any link
// lies in [1/S, 1]; it returns an error naming the violation if any. This is
// an internal consistency audit used by tests.
func (p Params) CheckRhoBounds() error {
	if p.DiscoverableLinks == 0 {
		return nil
	}
	lo := 1 / float64(p.S)
	if p.Rho < lo-1e-12 || p.Rho > 1+1e-12 {
		return fmt.Errorf("topology: rho %v outside [1/S=%v, 1]", p.Rho, lo)
	}
	return nil
}

// String renders the parameters compactly for logs and tool output.
func (p Params) String() string {
	rho := p.Rho
	if math.IsNaN(rho) {
		rho = 0
	}
	return fmt.Sprintf("N=%d U=%d S=%d Δ=%d deg=%d ρ=%.3f edges=%d links=%d (+%d undiscoverable)",
		p.N, p.UniverseSize, p.S, p.Delta, p.MaxGraphDegree, rho, p.Edges, p.DiscoverableLinks, p.EmptySpanLinks)
}
