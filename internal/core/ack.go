package core

import (
	"fmt"
	"slices"
	"sort"

	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// The acknowledgment extension for asymmetric communication graphs.
//
// On a symmetric graph, u hearing v tells u everything about the {u,v}
// link. On an asymmetric graph it does not: u may hear v while v never
// hears u, and — worse — even when both directions work, u has no way to
// know that its own transmissions arrive anywhere, because the paper's
// messages carry only A(v). The dissertation the paper defers to ([23])
// handles asymmetry by enriching the message; this wrapper implements the
// natural version of that idea: every outgoing message piggybacks the
// sender's currently discovered in-neighbor list (engines attach it via
// sim.HeardReporter). A receiver that finds its own ID in the list has
// proof its transmissions reach the sender — an acknowledged, usable
// out-link.
//
// The wrapper leaves the transmission schedule untouched, so all running
// time guarantees of the wrapped algorithm carry over to in-neighbor
// discovery; out-link confirmation needs one extra successful reception in
// the reverse... same direction again *after* the first, so confirmation
// time is roughly one more coverage epoch (experiment E19 measures it).

// Acknowledging wraps a synchronous protocol with in-neighbor-list
// piggybacking and out-link confirmation tracking.
type Acknowledging struct {
	self      topology.NodeID
	inner     SyncDiscoverer
	confirmed map[topology.NodeID]bool
	// heard caches the inner table's neighbors, ascending. Deliver, the
	// wrapper's one writer, rebuilds it when the table grows (tables never
	// shrink); AppendHeard only reads it, so concurrent heard-list queries
	// stay safe.
	heard []topology.NodeID
}

// NewAcknowledging wraps inner for the node with ID self. The ID is needed
// to recognize acknowledgments; the paper's protocols themselves never use
// it for scheduling.
func NewAcknowledging(self topology.NodeID, inner SyncDiscoverer) (*Acknowledging, error) {
	if inner == nil {
		return nil, fmt.Errorf("core: acknowledging wrapper needs a protocol")
	}
	if self < 0 {
		return nil, fmt.Errorf("core: invalid node id %d", self)
	}
	return &Acknowledging{
		self:      self,
		inner:     inner,
		confirmed: make(map[topology.NodeID]bool),
		heard:     inner.Neighbors().Neighbors(),
	}, nil
}

// Step delegates to the wrapped protocol unchanged.
func (p *Acknowledging) Step(localSlot int) radio.Action {
	return p.inner.Step(localSlot)
}

// Deliver records the message and scans its piggybacked heard-list for an
// acknowledgment of this node's own transmissions.
func (p *Acknowledging) Deliver(msg radio.Message) {
	p.inner.Deliver(msg)
	if t := p.inner.Neighbors(); t.Len() != len(p.heard) {
		p.heard = t.AppendNeighbors(p.heard[:0])
	}
	for _, id := range msg.Heard {
		if id == p.self {
			p.confirmed[msg.From] = true
			break
		}
	}
}

// Neighbors returns the wrapped protocol's discovery output (in-neighbors).
func (p *Acknowledging) Neighbors() *NeighborTable { return p.inner.Neighbors() }

// ReserveNeighbors forwards the engine's size hint to the wrapped table
// and sizes the heard cache to match.
func (p *Acknowledging) ReserveNeighbors(expected int) {
	p.inner.Neighbors().Reserve(expected)
	p.heard = slices.Grow(p.heard, max(0, expected-len(p.heard)))
}

// AppendHeard implements sim.HeardReporter: it appends the in-neighbors
// discovered so far, ascending, to dst — the list piggybacked on every
// outgoing message. It copies the cached list; a table written past the
// wrapper (its length no longer matches) is read afresh instead.
func (p *Acknowledging) AppendHeard(dst []topology.NodeID) []topology.NodeID {
	if t := p.inner.Neighbors(); t.Len() != len(p.heard) {
		return t.AppendNeighbors(dst)
	}
	return append(dst, p.heard...)
}

// Confirmed returns the nodes known to hear this node (acknowledged
// out-links), in ascending order.
func (p *Acknowledging) Confirmed() []topology.NodeID {
	out := make([]topology.NodeID, 0, len(p.confirmed))
	for id := range p.confirmed {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasConfirmed reports whether v is known to hear this node.
func (p *Acknowledging) HasConfirmed(v topology.NodeID) bool { return p.confirmed[v] }
