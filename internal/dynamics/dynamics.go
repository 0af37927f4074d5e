// Package dynamics is the time-varying network substrate: it turns a static
// topology.Network into a schedule of per-epoch snapshots covering node
// churn (join/leave), random-waypoint mobility with geometric edge
// re-derivation, and primary-user spectrum dynamics that shrink and grow
// per-node usable channel sets mid-run.
//
// Time is divided into fixed-length epochs; every dynamic quantity is
// piecewise-constant per epoch. The engines map their own time axis onto
// epochs (slot index / EpochSlots for the synchronous engine, real time /
// EpochLen for the asynchronous ones) and swap reception structure at epoch
// boundaries, keeping the per-slot hot loops exactly as allocation-free as
// in static runs.
//
// Determinism: a World draws its entire schedule — join/leave epochs,
// waypoint itineraries, primary-user events — at construction, from the one
// rng.Source handed to NewWorld, in a fixed documented order. After
// construction a snapshot is a pure function of its epoch index: no rng is
// consumed when epochs are built, so runs remain a pure function of their
// seed and stay cacheable regardless of how an engine interleaves epoch
// queries with protocol draws.
package dynamics

import (
	"fmt"
	"math"

	"m2hew/internal/channel"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// Spec selects the dynamic behaviours of a run. Any subset of the three
// profiles may be active; a Spec with none is a legal (static) world, which
// the differential tests use to pin dynamic plumbing to static results.
type Spec struct {
	// EpochLen is the epoch length in the driving engine's native time
	// unit: slots for the synchronous engine (where it must be a positive
	// integer), real-time units for the asynchronous engines. Required > 0.
	EpochLen float64
	// Churn, if non-nil, activates node join/leave schedules.
	Churn *Churn
	// Mobility, if non-nil, activates random-waypoint motion with per-epoch
	// geometric edge re-derivation.
	Mobility *Mobility
	// Primary, if non-nil, activates primary-user spectrum dynamics.
	Primary *Primary
}

// Churn configures node join/leave schedules. Each node independently joins
// late with probability JoinFraction (uniformly within the first JoinWindow
// epochs; otherwise it is present from epoch 0) and leaves permanently with
// probability LeaveFraction (uniformly within LeaveWindow epochs after its
// join; otherwise it never leaves). A node is active in [join, leave).
type Churn struct {
	JoinFraction  float64
	JoinWindow    int
	LeaveFraction float64
	LeaveWindow   int
}

// Mobility configures random-waypoint motion over the unit square: each
// node starts at its base-network position, repeatedly draws a uniform
// waypoint, travels toward it at Speed (unit-square side lengths per
// epoch), and pauses Pause epochs on arrival. Positions are sampled at
// epoch starts; edges are re-derived per epoch from the sampled positions
// with communication radius Radius via the same grid-bucket scan
// topology.Geometric uses.
type Mobility struct {
	Speed  float64
	Radius float64
	Pause  int
}

// Primary configures primary-user dynamics: Events license holders appear
// at uniform positions and epochs over the horizon, each occupying one
// uniformly drawn channel of the base network's universe for Duration
// epochs. While a primary is active, every node within Radius of it must
// vacate the channel: the channel leaves the node's usable set, shrinking
// incident link spans (and returns when the primary vanishes).
type Primary struct {
	Events   int
	Duration int
	Radius   float64
}

func (s *Spec) validate() error {
	if s.EpochLen <= 0 {
		return fmt.Errorf("dynamics: epoch length %v must be positive", s.EpochLen)
	}
	if c := s.Churn; c != nil {
		if c.JoinFraction < 0 || c.JoinFraction > 1 || c.LeaveFraction < 0 || c.LeaveFraction > 1 {
			return fmt.Errorf("dynamics: churn fractions (%v join, %v leave) outside [0,1]", c.JoinFraction, c.LeaveFraction)
		}
		if c.JoinFraction > 0 && c.JoinWindow <= 0 {
			return fmt.Errorf("dynamics: join window %d must be positive when joins are active", c.JoinWindow)
		}
		if c.LeaveFraction > 0 && c.LeaveWindow <= 0 {
			return fmt.Errorf("dynamics: leave window %d must be positive when leaves are active", c.LeaveWindow)
		}
	}
	if m := s.Mobility; m != nil {
		if m.Speed <= 0 {
			return fmt.Errorf("dynamics: mobility speed %v must be positive", m.Speed)
		}
		if m.Radius <= 0 {
			return fmt.Errorf("dynamics: mobility radius %v must be positive", m.Radius)
		}
		if m.Pause < 0 {
			return fmt.Errorf("dynamics: mobility pause %d is negative", m.Pause)
		}
	}
	if p := s.Primary; p != nil {
		if p.Events <= 0 {
			return fmt.Errorf("dynamics: primary events %d must be positive", p.Events)
		}
		if p.Duration <= 0 {
			return fmt.Errorf("dynamics: primary duration %d must be positive", p.Duration)
		}
		if p.Radius < 0 {
			return fmt.Errorf("dynamics: primary radius %v is negative", p.Radius)
		}
	}
	return nil
}

// ChannelLoss records one node losing one channel to a primary user at an
// epoch boundary.
type ChannelLoss struct {
	Node    topology.NodeID
	Channel channel.ID
}

// Epoch is one immutable snapshot of the world: who is active, what each
// node's reception structure looks like, and what changed at this boundary.
// Snapshots for unchanged epochs share their tables with the previous
// epoch, so long quiet stretches cost no memory or rebuild work.
type Epoch struct {
	// Index is the epoch number, starting at 0.
	Index int
	// Active reports per node whether it participates this epoch. Inactive
	// nodes make no protocol decisions and appear on no link.
	Active []bool
	// Blocked holds per node the channels currently occupied by a primary
	// user at the node's position; nil when no primary is active. Blocked
	// channels are already subtracted from every span in Cands.
	Blocked []channel.Set
	// Joined and Left list the nodes whose activity flipped at this epoch
	// boundary, ascending. Both are empty at epoch 0 (initial presence is
	// state, not an event).
	Joined, Left []topology.NodeID
	// Losses lists the (node, channel) pairs newly blocked at this epoch,
	// ascending by node then channel. Channels returning to service are
	// reflected in Cands/Blocked but carry no event.
	Losses []ChannelLoss
	// Cands is the inbound-candidate table of this epoch's graph, in the
	// ascending-From order topology.InboundCandidates guarantees; spans
	// already exclude blocked channels and inactive endpoints. Its rows
	// are also the epoch's discoverable directed links — (v, u) for every
	// v in Cands[u] — which a coverage target grows by when the epoch
	// begins.
	Cands [][]topology.Candidate
	// Quiescent reports that no structural change happens at any later
	// epoch: an engine that has reached full coverage may stop early.
	// Always false while mobility is active.
	Quiescent bool
}

// leg is one straight-line segment (or pause) of a node's waypoint
// itinerary, covering epoch-time [t0, t1].
type leg struct {
	t0, t1         float64
	x0, y0, x1, y1 float64
}

// primaryEvent is one scheduled primary-user appearance.
type primaryEvent struct {
	ch         channel.ID
	x, y       float64
	start, end int // active during epochs [start, end)
}

// World is the precomputed dynamic schedule over a base network plus a memo
// of built epoch snapshots. A World belongs to one run at a time: At
// memoizes lazily, so concurrent use from several goroutines would race.
// Trial harnesses build one World per trial.
type World struct {
	spec    Spec
	base    *topology.Network
	n       int
	horizon int

	join, leave []int // per node; leave == horizon+1 when the node never leaves
	paths       [][]leg
	primaries   []primaryEvent

	lastChange int // latest epoch with a structural change (0 when none)

	baseCands [][]topology.Candidate    // base network's candidate table (filter path)
	allActive []bool                    // shared all-true Active for churn-free worlds
	nodesBuf  []topology.Node           // mobility rebuild buffer: positions updated per epoch
	deriver   topology.GeometricDeriver // mobility rebuild scratch, reused across epochs

	epochs []*Epoch // memo, built sequentially from epoch 0
}

// NewWorld draws the full dynamic schedule for horizon epochs over base
// from r and returns the world. The draw order is fixed and documented —
// churn (per node ascending: join Bernoulli, join epoch, leave Bernoulli,
// leave epoch), then mobility itineraries (per node ascending, waypoints in
// travel order), then primary events (channel, x, y, start epoch each) — so
// a seeded world is reproducible byte-for-byte. r is consumed only during
// this call; epoch snapshots never draw.
func NewWorld(base *topology.Network, spec Spec, horizon int, r *rng.Source) (*World, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if base == nil {
		return nil, fmt.Errorf("dynamics: world needs a base network")
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("dynamics: horizon %d epochs must be positive", horizon)
	}
	if r == nil {
		return nil, fmt.Errorf("dynamics: world needs a random source")
	}
	w := &World{spec: spec, base: base, n: base.N(), horizon: horizon}
	w.drawChurn(r)
	w.drawMobility(r)
	w.drawPrimaries(r)
	w.computeLastChange()
	if spec.Churn == nil {
		w.allActive = make([]bool, w.n)
		for u := range w.allActive {
			w.allActive[u] = true
		}
	}
	if spec.Mobility != nil {
		w.nodesBuf = base.Nodes()
	} else {
		w.baseCands = base.InboundCandidates()
	}
	return w, nil
}

func (w *World) drawChurn(r *rng.Source) {
	c := w.spec.Churn
	if c == nil {
		return
	}
	w.join = make([]int, w.n)
	w.leave = make([]int, w.n)
	for u := 0; u < w.n; u++ {
		join := 0
		if c.JoinFraction > 0 && r.Bernoulli(c.JoinFraction) {
			join = 1 + r.IntN(c.JoinWindow)
		}
		leave := w.horizon + 1
		if c.LeaveFraction > 0 && r.Bernoulli(c.LeaveFraction) {
			leave = join + 1 + r.IntN(c.LeaveWindow)
		}
		w.join[u] = join
		w.leave[u] = leave
	}
}

func (w *World) drawMobility(r *rng.Source) {
	m := w.spec.Mobility
	if m == nil {
		return
	}
	w.paths = make([][]leg, w.n)
	end := float64(w.horizon)
	for u := 0; u < w.n; u++ {
		node := w.base.Node(topology.NodeID(u))
		x, y := node.X, node.Y
		t := 0.0
		var legs []leg
		for t < end {
			wx, wy := r.Float64(), r.Float64()
			dur := math.Hypot(wx-x, wy-y) / m.Speed
			if dur < 1e-9 {
				dur = 1e-9 // a coincident waypoint must still advance time
			}
			legs = append(legs, leg{t0: t, t1: t + dur, x0: x, y0: y, x1: wx, y1: wy})
			t += dur
			x, y = wx, wy
			if m.Pause > 0 && t < end {
				pt := t + float64(m.Pause)
				legs = append(legs, leg{t0: t, t1: pt, x0: x, y0: y, x1: x, y1: y})
				t = pt
			}
		}
		w.paths[u] = legs
	}
}

func (w *World) drawPrimaries(r *rng.Source) {
	p := w.spec.Primary
	if p == nil {
		return
	}
	ids := w.base.Universe().IDs()
	if len(ids) == 0 {
		return
	}
	w.primaries = make([]primaryEvent, p.Events)
	for k := range w.primaries {
		w.primaries[k] = primaryEvent{
			ch:    ids[r.IntN(len(ids))],
			x:     r.Float64(),
			y:     r.Float64(),
			start: r.IntN(w.horizon),
		}
		w.primaries[k].end = w.primaries[k].start + p.Duration
	}
}

func (w *World) computeLastChange() {
	last := 0
	for u := range w.join {
		if w.join[u] > last {
			last = w.join[u]
		}
		if w.leave[u] <= w.horizon && w.leave[u] > last {
			last = w.leave[u]
		}
	}
	for _, p := range w.primaries {
		if p.start > last {
			last = p.start
		}
		if end := min(p.end, w.horizon); end > last {
			last = end
		}
	}
	w.lastChange = last
}

// Horizon returns the number of scheduled epochs. Queries beyond it clamp
// to the final epoch, whose state persists.
func (w *World) Horizon() int { return w.horizon }

// N returns the node count of the base network.
func (w *World) N() int { return w.n }

// EpochLen returns the epoch length in the driving engine's time unit.
func (w *World) EpochLen() float64 { return w.spec.EpochLen }

// EpochSlots returns the epoch length as a whole number of synchronous
// slots, or an error when the spec's EpochLen is not a positive integer
// (the synchronous engine advances epochs on slot boundaries).
func (w *World) EpochSlots() (int, error) {
	slots := int(w.spec.EpochLen)
	if float64(slots) != w.spec.EpochLen || slots <= 0 {
		return 0, fmt.Errorf("dynamics: epoch length %v is not a positive whole number of slots", w.spec.EpochLen)
	}
	return slots, nil
}

// EpochOf maps a real time to its epoch index, clamped to the scheduled
// horizon. The asynchronous engines sample topology with it at each
// listening frame's start.
func (w *World) EpochOf(t float64) int {
	if t <= 0 {
		return 0
	}
	e := int(t / w.spec.EpochLen)
	if e >= w.horizon {
		e = w.horizon - 1
	}
	return e
}

// At returns the epoch-e snapshot, building (and memoizing) snapshots in
// epoch order up to e. e is clamped to [0, Horizon−1]. The returned
// snapshot is immutable; its tables may be shared with neighboring epochs.
func (w *World) At(e int) *Epoch {
	if e < 0 {
		e = 0
	}
	if e >= w.horizon {
		e = w.horizon - 1
	}
	for len(w.epochs) <= e {
		w.epochs = append(w.epochs, w.build(len(w.epochs)))
	}
	return w.epochs[e]
}

// build constructs the epoch-e snapshot. Epochs are built strictly in
// order, so the previous snapshot is available for structural sharing and
// for the loss delta. No rng is consumed here — the whole schedule was
// drawn at construction — so building is a pure function of e.
func (w *World) build(e int) *Epoch {
	var prev *Epoch
	if e > 0 {
		prev = w.epochs[e-1]
	}
	ep := &Epoch{Index: e}

	// Activity. Flip lists stay empty at epoch 0: initial presence is
	// state, not an event.
	if w.join == nil {
		ep.Active = w.allActive
	} else {
		if prev != nil {
			for u := 0; u < w.n; u++ {
				if w.join[u] == e {
					ep.Joined = append(ep.Joined, topology.NodeID(u))
				}
				if w.leave[u] == e {
					ep.Left = append(ep.Left, topology.NodeID(u))
				}
			}
		}
		if prev != nil && len(ep.Joined) == 0 && len(ep.Left) == 0 {
			ep.Active = prev.Active
		} else {
			active := make([]bool, w.n)
			for u := 0; u < w.n; u++ {
				active[u] = w.join[u] <= e && e < w.leave[u]
			}
			ep.Active = active
		}
	}

	// Spectrum occupancy. Blocked sets depend on node positions, so with
	// mobility they are recomputed every epoch; otherwise only when a
	// primary event starts or ends.
	puChanged := false
	for _, p := range w.primaries {
		if p.start == e || p.end == e {
			puChanged = true
			break
		}
	}
	if len(w.primaries) > 0 {
		if prev != nil && !puChanged && w.spec.Mobility == nil {
			ep.Blocked = prev.Blocked
		} else {
			ep.Blocked = w.blockedAt(e)
			var prevBlocked []channel.Set
			if prev != nil {
				prevBlocked = prev.Blocked
			}
			ep.Losses = lossDelta(ep.Blocked, prevBlocked)
		}
	}

	// Reception structure: rebuilt when anything above moved, shared with
	// the previous epoch otherwise.
	structChanged := prev == nil || w.spec.Mobility != nil ||
		len(ep.Joined) > 0 || len(ep.Left) > 0 || puChanged
	switch {
	case !structChanged:
		ep.Cands = prev.Cands
	case w.spec.Mobility != nil:
		for u := range w.nodesBuf {
			w.nodesBuf[u].X, w.nodesBuf[u].Y = w.positionAt(u, float64(e))
		}
		ep.Cands = w.deriver.Derive(w.nodesBuf, w.spec.Mobility.Radius, ep.Active, ep.Blocked)
	default:
		ep.Cands = w.filterBase(ep.Active, ep.Blocked)
	}

	ep.Quiescent = w.spec.Mobility == nil && e >= w.lastChange
	return ep
}

// positionAt evaluates node u's itinerary at epoch-time t by linear
// interpolation along the containing leg.
func (w *World) positionAt(u int, t float64) (float64, float64) {
	legs := w.paths[u]
	if len(legs) == 0 {
		node := w.base.Node(topology.NodeID(u))
		return node.X, node.Y
	}
	// Binary search: last leg with t0 <= t.
	lo, hi := 0, len(legs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if legs[mid].t0 <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	idx := lo - 1
	if idx < 0 {
		idx = 0
	}
	l := legs[idx]
	if t >= l.t1 {
		return l.x1, l.y1
	}
	if t <= l.t0 {
		return l.x0, l.y0
	}
	frac := (t - l.t0) / (l.t1 - l.t0)
	return l.x0 + float64(frac*(l.x1-l.x0)), l.y0 + float64(frac*(l.y1-l.y0))
}

// blockedAt computes the per-node blocked channel sets at epoch e from the
// primaries active then and the node positions sampled at the epoch start.
func (w *World) blockedAt(e int) []channel.Set {
	var blocked []channel.Set
	radius := w.spec.Primary.Radius
	for _, p := range w.primaries {
		if e < p.start || e >= p.end {
			continue
		}
		for u := 0; u < w.n; u++ {
			var x, y float64
			if w.spec.Mobility != nil {
				x, y = w.positionAt(u, float64(e))
			} else {
				node := w.base.Node(topology.NodeID(u))
				x, y = node.X, node.Y
			}
			if math.Hypot(x-p.x, y-p.y) > radius {
				continue
			}
			if blocked == nil {
				blocked = make([]channel.Set, w.n)
			}
			blocked[u].Add(p.ch)
		}
	}
	return blocked
}

// lossDelta lists the (node, channel) pairs blocked now but not before,
// ascending by node then channel.
func lossDelta(now, before []channel.Set) []ChannelLoss {
	if now == nil {
		return nil
	}
	var losses []ChannelLoss
	for u := range now {
		fresh := now[u]
		if before != nil && !before[u].IsEmpty() {
			fresh = fresh.Minus(before[u])
		}
		for _, c := range fresh.IDs() {
			losses = append(losses, ChannelLoss{Node: topology.NodeID(u), Channel: c})
		}
	}
	return losses
}

// filterBase derives the epoch's reception structure from the base
// network's candidate table (churn and primary-user dynamics on a fixed
// graph): inactive endpoints drop out, blocked channels are subtracted
// from spans, and links whose span empties vanish. Asymmetric drops and
// span overrides of the base network are preserved — the base table
// already reflects them. Spans untouched by blocking share storage with
// the base table (read-only by the Candidate contract).
func (w *World) filterBase(active []bool, blocked []channel.Set) [][]topology.Candidate {
	cands := make([][]topology.Candidate, w.n)
	for u := 0; u < w.n; u++ {
		if !active[u] {
			continue
		}
		for _, cand := range w.baseCands[u] {
			if !active[cand.From] {
				continue
			}
			span := cand.Span
			if blocked != nil {
				if !blocked[u].IsEmpty() {
					span = span.Minus(blocked[u])
				}
				if !blocked[cand.From].IsEmpty() {
					span = span.Minus(blocked[cand.From])
				}
			}
			if span.IsEmpty() {
				continue
			}
			cands[u] = append(cands[u], topology.Candidate{From: cand.From, Span: span})
		}
	}
	return cands
}
