package topology

import (
	"fmt"
	"math"

	"m2hew/internal/channel"
	"m2hew/internal/rng"
)

// AssignHomogeneous gives every node the full universal set {0..universe−1}.
// This is the homogeneous special case (ρ = 1) that much prior work assumes.
func AssignHomogeneous(nw *Network, universe int) error {
	if universe <= 0 {
		return fmt.Errorf("topology: homogeneous universe size %d must be positive", universe)
	}
	full := channel.Range(universe)
	for u := 0; u < nw.N(); u++ {
		nw.SetAvail(NodeID(u), full)
	}
	return nil
}

// AssignUniformK gives every node an independent uniformly random k-subset
// of {0..universe−1}, then repairs infeasibility (a node with no channels, or
// an edge with empty span) by adding shared channels. Repair may grow some
// sets slightly beyond k; the caller reads the realized parameters from
// ComputeParams.
func AssignUniformK(nw *Network, universe, k int, r *rng.Source) error {
	if universe <= 0 {
		return fmt.Errorf("topology: uniform-k universe size %d must be positive", universe)
	}
	if k <= 0 || k > universe {
		return fmt.Errorf("topology: uniform-k subset size %d outside [1,%d]", k, universe)
	}
	full := channel.Range(universe)
	for u := 0; u < nw.N(); u++ {
		sub, err := channel.RandomSubset(full, k, r)
		if err != nil {
			return err
		}
		nw.SetAvail(NodeID(u), sub)
	}
	return repairFeasibility(nw, full, r)
}

// AssignBernoulli includes each universe channel in each node's set
// independently with probability q, then repairs infeasibility. This models
// i.i.d. per-node spectrum availability.
func AssignBernoulli(nw *Network, universe int, q float64, r *rng.Source) error {
	if universe <= 0 {
		return fmt.Errorf("topology: bernoulli universe size %d must be positive", universe)
	}
	if q < 0 || q > 1 {
		return fmt.Errorf("topology: bernoulli inclusion probability %v outside [0,1]", q)
	}
	full := channel.Range(universe)
	for u := 0; u < nw.N(); u++ {
		var s channel.Set
		for c := 0; c < universe; c++ {
			if r.Bernoulli(q) {
				s.Add(channel.ID(c))
			}
		}
		nw.SetAvail(NodeID(u), s)
	}
	return repairFeasibility(nw, full, r)
}

// PrimaryUser is a licensed transmitter occupying one channel within an
// exclusion radius. Secondary (cognitive) nodes inside the radius must not
// use that channel.
type PrimaryUser struct {
	X, Y    float64
	Channel channel.ID
	Radius  float64
}

// AssignPrimaryUsers derives heterogeneous available sets from spatial
// primary-user activity — the cognitive-radio scenario that motivates the
// paper. numPrimaries primaries are placed uniformly in the unit square,
// each licensed to a uniformly random channel and active within
// exclusionRadius. A node's available set is the universe minus the channels
// of all primaries within range. Spatial correlation emerges naturally:
// nearby nodes lose similar channels, so spans stay large between neighbors
// while distant parts of the network diverge. Infeasibility is repaired as
// in the other assigners. The placed primaries are returned for
// visualization.
func AssignPrimaryUsers(nw *Network, universe, numPrimaries int, exclusionRadius float64, r *rng.Source) ([]PrimaryUser, error) {
	if universe <= 0 {
		return nil, fmt.Errorf("topology: primary-user universe size %d must be positive", universe)
	}
	if numPrimaries < 0 {
		return nil, fmt.Errorf("topology: %d primaries is negative", numPrimaries)
	}
	if exclusionRadius < 0 {
		return nil, fmt.Errorf("topology: exclusion radius %v is negative", exclusionRadius)
	}
	full := channel.Range(universe)
	primaries := make([]PrimaryUser, numPrimaries)
	for i := range primaries {
		primaries[i] = PrimaryUser{
			X:       r.Float64(),
			Y:       r.Float64(),
			Channel: channel.ID(r.IntN(universe)),
			Radius:  exclusionRadius,
		}
	}
	for u := 0; u < nw.N(); u++ {
		node := nw.Node(NodeID(u))
		avail := full.Clone()
		for _, pu := range primaries {
			if math.Hypot(node.X-pu.X, node.Y-pu.Y) <= pu.Radius {
				avail.Remove(pu.Channel)
			}
		}
		nw.SetAvail(NodeID(u), avail)
	}
	if err := repairFeasibility(nw, full, r); err != nil {
		return nil, err
	}
	return primaries, nil
}

// AssignBlockOverlap gives every node a set of exactly shared+private
// channels: a common block {0..shared−1} plus a per-node private block
// disjoint from everyone else's. Every link span is then exactly the shared
// block, every |A(u)| = shared+private, and therefore
//
//	ρ = shared / (shared + private)
//
// exactly. This assigner is the control knob of the span-ratio scaling
// experiment (E8): it realizes any rational ρ without changing N, Δ or the
// graph.
func AssignBlockOverlap(nw *Network, shared, private int) error {
	if shared <= 0 {
		return fmt.Errorf("topology: block-overlap shared block %d must be positive", shared)
	}
	if private < 0 {
		return fmt.Errorf("topology: block-overlap private block %d is negative", private)
	}
	for u := 0; u < nw.N(); u++ {
		var s channel.Set
		for c := 0; c < shared; c++ {
			s.Add(channel.ID(c))
		}
		base := shared + u*private
		for c := 0; c < private; c++ {
			s.Add(channel.ID(base + c))
		}
		nw.SetAvail(NodeID(u), s)
	}
	return nil
}

// repairFeasibility makes the network valid for discovery: every node gets
// at least one channel and every edge a non-empty span. Repairs add the
// minimum number of channels: a random universe channel for an empty node
// set; for an empty span, one endpoint's random channel is granted to the
// other endpoint (preferring to extend the smaller set).
func repairFeasibility(nw *Network, universe channel.Set, r *rng.Source) error {
	for u := 0; u < nw.N(); u++ {
		if nw.Avail(NodeID(u)).IsEmpty() {
			c, err := universe.Pick(r)
			if err != nil {
				return fmt.Errorf("topology: repair node %d: %w", u, err)
			}
			s := nw.Avail(NodeID(u)).Clone()
			s.Add(c)
			nw.SetAvail(NodeID(u), s)
		}
	}
	// Each undirected edge once, as its directed link (a, b>a) in
	// DirectedLinks order; an edge whose a→b direction was dropped is
	// skipped. Repairs change only available sets, never the walk.
	for u := 0; u < nw.N(); u++ {
		a := NodeID(u)
		for _, b := range nw.adj[u] {
			if b < a || !nw.undropped(a, b) || nw.spanSize(a, b) > 0 {
				continue
			}
			if err := repairEdge(nw, a, b, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// repairEdge gives the empty-span edge {a,b} a common channel: one of the
// larger set's channels is granted to the smaller set, keeping set sizes
// balanced.
func repairEdge(nw *Network, a, b NodeID, r *rng.Source) error {
	donor, recipient := a, b
	if nw.Avail(a).Size() < nw.Avail(b).Size() {
		donor, recipient = b, a
	}
	c, err := nw.Avail(donor).Pick(r)
	if err != nil {
		return fmt.Errorf("topology: repair edge {%d,%d}: %w", a, b, err)
	}
	s := nw.Avail(recipient).Clone()
	s.Add(c)
	nw.SetAvail(recipient, s)
	return nil
}

// DropRandomDirections makes a symmetric network partially asymmetric: for
// each undirected edge, with the given probability one uniformly chosen
// direction is dropped. This realizes the paper's Section V extension (a):
// links where u hears v but not vice versa (e.g. asymmetric transmit powers
// or interference floors).
func DropRandomDirections(nw *Network, fraction float64, r *rng.Source) error {
	if fraction < 0 || fraction > 1 {
		return fmt.Errorf("topology: asymmetric fraction %v outside [0,1]", fraction)
	}
	for _, l := range nw.DirectedLinks() {
		if l.From > l.To {
			continue // visit each undirected edge once
		}
		if !r.Bernoulli(fraction) {
			continue
		}
		from, to := l.From, l.To
		if r.Bernoulli(0.5) {
			from, to = to, from
		}
		if err := nw.DropDirection(from, to); err != nil {
			return err
		}
	}
	return nil
}

// RestrictSpansRandomly caps every edge's span at maxSpan channels, chosen
// uniformly from the edge's natural span A(u)∩A(v). This realizes the
// paper's Section II/V extension (c): channels with diverse propagation
// characteristics, where a link physically works only on a subset of the
// channels both endpoints have available. Edges whose span is already
// within the cap are untouched.
func RestrictSpansRandomly(nw *Network, maxSpan int, r *rng.Source) error {
	if maxSpan < 1 {
		return fmt.Errorf("topology: span cap %d must be positive", maxSpan)
	}
	for _, l := range nw.DirectedLinks() {
		if l.From > l.To {
			continue
		}
		span := nw.Span(l.From, l.To)
		if span.Size() <= maxSpan {
			continue
		}
		sub, err := channel.RandomSubset(span, maxSpan, r)
		if err != nil {
			return fmt.Errorf("topology: restrict edge {%d,%d}: %w", l.From, l.To, err)
		}
		if err := nw.RestrictSpan(l.From, l.To, sub); err != nil {
			return err
		}
	}
	return nil
}

// RevokeChannel models the arrival of a licensed primary user during
// operation — the event the paper's introduction says secondary users must
// yield to ("when a primary user arrives and starts using its channel, the
// secondary users have to vacate the channel"). Channel c is removed from
// the available set of every node within radius of (x, y). It returns the
// IDs of the affected nodes.
//
// Revocation can legitimately leave nodes with empty sets or links with
// empty spans — that is the physical reality of spectrum churn, so unlike
// the assigners this function performs no repair. Callers re-derive the
// discovery target from DiscoverableLinks afterwards.
func RevokeChannel(nw *Network, c channel.ID, x, y, radius float64) []NodeID {
	var affected []NodeID
	for u := 0; u < nw.N(); u++ {
		node := nw.Node(NodeID(u))
		if math.Hypot(node.X-x, node.Y-y) > radius {
			continue
		}
		if !nw.Avail(NodeID(u)).Contains(c) {
			continue
		}
		s := nw.Avail(NodeID(u)).Clone()
		s.Remove(c)
		nw.SetAvail(NodeID(u), s)
		affected = append(affected, NodeID(u))
	}
	return affected
}
