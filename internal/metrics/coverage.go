// Package metrics tracks discovery progress during a simulation and
// aggregates results across trials.
//
// The central type is Coverage: the oracle's view of which directed links
// have been covered (paper terminology: link (v,u) is covered when u hears a
// clear message from v) and when. Engines feed it observations; experiments
// read completion times and progress curves from it. Aggregation helpers
// summarize repeated trials into the statistics EXPERIMENTS.md reports.
package metrics

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"m2hew/internal/topology"
)

// TargetIndex is a static coverage target in CSR form: the links sorted
// ascending by (From, To) and stored as row offsets plus ascending
// destination lists, so memory is O(links) and a membership query is one
// binary search in the sender's row. An index is immutable once built; it
// is meant to be built once per network and shared read-only by every
// run's Coverage on that network (see NewCoverageOn).
type TargetIndex struct {
	// off[v] .. off[v+1] is row v's window into to; len(off) is one past
	// the largest From.
	off []int64
	to  []topology.NodeID
}

// NewTargetIndex builds the CSR index of links. Input in
// Network.DiscoverableLinks order (strictly ascending by (From, To)) is
// indexed as is; any other order is sorted and deduplicated on a copy, so
// the caller's slice is never modified. It returns nil when a link has a
// negative endpoint — such links have no CSR row.
func NewTargetIndex(links []topology.Link) *TargetIndex {
	sorted := true
	for i, l := range links {
		if l.From < 0 || l.To < 0 {
			return nil
		}
		if i > 0 && cmpLink(links[i-1], l) >= 0 {
			sorted = false
		}
	}
	if !sorted {
		links = slices.Clone(links)
		slices.SortFunc(links, cmpLink)
		links = slices.Compact(links)
	}
	rows := 0
	if len(links) > 0 {
		rows = int(links[len(links)-1].From) + 1
	}
	idx := &TargetIndex{
		off: make([]int64, rows+1),
		to:  make([]topology.NodeID, len(links)),
	}
	row := 0
	for i, l := range links {
		for row < int(l.From) {
			row++
			idx.off[row] = int64(i)
		}
		idx.to[i] = l.To
	}
	for row < rows {
		row++
		idx.off[row] = int64(len(links))
	}
	return idx
}

// NewTargetIndexFromCandidates builds the CSR index of the discoverable
// links straight from an InboundCandidates table, by a counting-sort
// transpose: link (v, u) is discoverable exactly when v is an inbound
// candidate of u, so row v lists every u with v ∈ cands[u], in ascending u.
// The result equals NewTargetIndex(nw.DiscoverableLinks()) for the network
// the table was built from, without materializing or sorting the link list:
// two O(links) arrays, filled in one pass over the table.
func NewTargetIndexFromCandidates(cands [][]topology.Candidate) *TargetIndex {
	// Rows run to the largest transmitter, as NewTargetIndex sizes them.
	rows, links := 0, 0
	for _, list := range cands {
		if k := len(list); k > 0 {
			links += k
			rows = max(rows, int(list[k-1].From)+1)
		}
	}
	idx := &TargetIndex{
		off: make([]int64, rows+1),
		to:  make([]topology.NodeID, links),
	}
	// off[v+1] counts row v; the prefix sum turns off[v] into row v's start.
	for _, list := range cands {
		for _, c := range list {
			idx.off[c.From+1]++
		}
	}
	for v := 1; v <= rows; v++ {
		idx.off[v] += idx.off[v-1]
	}
	// Scatter in ascending receiver order, using off[v] as row v's cursor;
	// afterwards off[v] holds row v's end, so shift it back by one row.
	for u, list := range cands {
		for _, c := range list {
			idx.to[idx.off[c.From]] = topology.NodeID(u)
			idx.off[c.From]++
		}
	}
	copy(idx.off[1:], idx.off[:rows])
	idx.off[0] = 0
	return idx
}

// cmpLink orders links ascending by (From, To).
func cmpLink(a, b topology.Link) int {
	if a.From != b.From {
		return cmp.Compare(a.From, b.From)
	}
	return cmp.Compare(a.To, b.To)
}

// Len returns the number of target links.
func (x *TargetIndex) Len() int { return len(x.to) }

// find returns link l's position in the index, or -1 when l is not a
// target link.
//
//nd:hotpath
func (x *TargetIndex) find(l topology.Link) int {
	if l.From < 0 || int(l.From) >= len(x.off)-1 {
		return -1
	}
	lo, hi := x.off[l.From], x.off[l.From+1]
	for lo < hi {
		mid := (lo + hi) >> 1
		if x.to[mid] < l.To {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < x.off[l.From+1] && x.to[lo] == l.To {
		return int(lo)
	}
	return -1
}

// Coverage tracks first-coverage times for a target set of directed links.
// Times are unitless float64s: slot indexes for synchronous runs, real time
// for asynchronous runs.
//
// The target is fixed at construction for static runs; time-varying runs
// grow it with AddTarget as links come into existence (churn, mobility,
// spectrum dynamics), recording each link's birth time so discovery latency
// — first coverage minus birth — stays well-defined for links that did not
// exist at time zero.
//
// Two interchangeable backings implement the same observable behaviour.
// Static targets use a CSR one: a shared read-only TargetIndex plus the
// run's own first-coverage times and covered bitmap, both O(links), with
// Observe one binary search in the sender's row. Dynamic targets — an
// empty constructor target grown by AddTarget — use a map one. An
// AddTarget outside a CSR target migrates the state into maps without
// touching the shared index; results are identical with either backing.
type Coverage struct {
	// CSR backing, active iff index != nil: link i of the index was first
	// covered at at[i], meaningful only where covered has bit i. The index
	// is shared and never written.
	index   *TargetIndex
	at      []float64
	covered []uint64

	// Map backing, active iff index == nil.
	first  map[topology.Link]float64
	target map[topology.Link]bool

	born      map[topology.Link]float64 // lazily allocated; absent link ⇒ born at 0
	remaining int
	nonTarget int // observations outside the target set (counted, never stored)
}

// NewCoverage returns a Coverage whose completion target is the given links
// (typically Network.DiscoverableLinks()). A non-empty target is indexed
// once for this Coverage; callers running many trials on one network build
// the index once with NewTargetIndex and use NewCoverageOn instead.
func NewCoverage(links []topology.Link) *Coverage {
	if len(links) > 0 {
		if idx := NewTargetIndex(links); idx != nil {
			return NewCoverageOn(idx)
		}
	}
	target := make(map[topology.Link]bool, len(links))
	for _, l := range links {
		target[l] = true
	}
	return &Coverage{
		first:     make(map[topology.Link]float64, len(links)),
		target:    target,
		remaining: len(target),
	}
}

// NewCoverageOn returns a Coverage whose completion target is the indexed
// links. The index is shared, not copied: the Coverage only reads it, so
// one index serves any number of concurrent or later runs. A nil index
// gives an empty target, like NewCoverage(nil).
func NewCoverageOn(idx *TargetIndex) *Coverage {
	if idx == nil {
		return NewCoverage(nil)
	}
	return &Coverage{
		index:     idx,
		at:        make([]float64, idx.Len()),
		covered:   make([]uint64, (idx.Len()+63)/64),
		remaining: idx.Len(),
	}
}

// forEachTarget visits every CSR target link in ascending (From, To) order
// with its coverage state. CSR backing only.
func (c *Coverage) forEachTarget(fn func(l topology.Link, covered bool, at float64)) {
	row := 0
	for i := range c.index.to {
		for int64(i) >= c.index.off[row+1] {
			row++
		}
		fn(topology.Link{From: topology.NodeID(row), To: c.index.to[i]}, c.isCovered(i), c.at[i])
	}
}

// isCovered reports whether CSR link i has been covered.
func (c *Coverage) isCovered(i int) bool {
	return c.covered[i>>6]&(uint64(1)<<(uint(i)&63)) != 0
}

// Observe records that link l was covered at the given time. It returns true
// if this is the first coverage of a target link. Observations of non-target
// links are counted (see NonTargetObservations) but never stored: storing
// them would let a mis-wired caller grow the map without bound, and the
// engines cannot produce any — a delivery implies a discoverable link, and
// the target is exactly the discoverable-link set.
//
//nd:hotpath
func (c *Coverage) Observe(l topology.Link, at float64) bool {
	if c.index != nil {
		i := c.index.find(l)
		if i < 0 {
			c.nonTarget++
			return false
		}
		if c.isCovered(i) {
			return false
		}
		c.covered[i>>6] |= uint64(1) << (uint(i) & 63)
		c.at[i] = at
		c.remaining--
		return true
	}
	if _, seen := c.first[l]; seen {
		return false
	}
	if !c.target[l] {
		c.nonTarget++
		return false
	}
	c.first[l] = at
	c.remaining--
	return true
}

// AddTarget grows the target set with link l, recording at as the link's
// birth time. It reports whether the link was new; re-adding a link already
// in the target (a link persisting across epochs) is a no-op, so the first
// epoch in which a link appears fixes its birth. Links added after being
// covered cannot occur in engine use — an engine only observes links it was
// already told exist — and are rejected as no-ops too.
func (c *Coverage) AddTarget(l topology.Link, at float64) bool {
	if c.index != nil {
		if c.index.find(l) >= 0 {
			return false
		}
		// A link outside the static CSR target: a dynamic run growing its
		// link set. Migrate to the map backing and fall through.
		c.migrate()
	}
	if c.target[l] {
		return false
	}
	c.target[l] = true
	c.remaining++
	if at != 0 {
		if c.born == nil {
			c.born = make(map[topology.Link]float64)
		}
		c.born[l] = at
	}
	return true
}

// migrate converts the CSR backing into the map backing, preserving every
// observable. Only an AddTarget outside the fixed target triggers it. The
// shared index is dropped, never written.
func (c *Coverage) migrate() {
	c.first = make(map[topology.Link]float64, c.index.Len())
	c.target = make(map[topology.Link]bool, c.index.Len())
	c.forEachTarget(func(l topology.Link, covered bool, at float64) {
		c.target[l] = true
		if covered {
			c.first[l] = at
		}
	})
	c.index, c.at, c.covered = nil, nil, nil
}

// BirthTime returns when link l entered the target set: the AddTarget time,
// or 0 for links in the initial (constructor) target. ok is false for links
// outside the target.
func (c *Coverage) BirthTime(l topology.Link) (float64, bool) {
	if !c.inTarget(l) {
		return 0, false
	}
	return c.born[l], true
}

func (c *Coverage) inTarget(l topology.Link) bool {
	if c.index != nil {
		return c.index.find(l) >= 0
	}
	return c.target[l]
}

// Latencies returns the discovery latency — first-coverage time minus birth
// time — of every covered target link, sorted ascending. For static runs
// (all links born at 0) this is simply the sorted first-coverage times.
func (c *Coverage) Latencies() []float64 {
	out := make([]float64, 0, c.TargetSize()-c.remaining)
	if c.index != nil {
		// Every CSR link is a constructor link, born at 0: AddTarget of a
		// new link migrates to the map backing before recording a birth.
		for i, at := range c.at {
			if c.isCovered(i) {
				out = append(out, at)
			}
		}
	} else {
		for l, at := range c.first {
			out = append(out, at-c.born[l])
		}
	}
	sort.Float64s(out)
	return out
}

// NonTargetObservations returns how many observations fell outside the
// target link set. A non-zero count flags mis-wired instrumentation: the
// engines only observe links on which they delivered, which are always
// discoverable.
func (c *Coverage) NonTargetObservations() int { return c.nonTarget }

// Complete reports whether every target link has been covered.
func (c *Coverage) Complete() bool { return c.remaining == 0 }

// Remaining returns the number of uncovered target links.
func (c *Coverage) Remaining() int { return c.remaining }

// TargetSize returns the number of target links.
func (c *Coverage) TargetSize() int {
	if c.index != nil {
		return c.index.Len()
	}
	return len(c.target)
}

// Progress returns the covered fraction of the target in [0,1]; it is 1 for
// an empty target.
func (c *Coverage) Progress() float64 {
	size := c.TargetSize()
	if size == 0 {
		return 1
	}
	return float64(size-c.remaining) / float64(size)
}

// FirstCovered returns when link l was first covered. Only target links are
// ever recorded.
func (c *Coverage) FirstCovered(l topology.Link) (float64, bool) {
	if c.index != nil {
		i := c.index.find(l)
		if i < 0 || !c.isCovered(i) {
			return 0, false
		}
		return c.at[i], true
	}
	at, ok := c.first[l]
	return at, ok
}

// CompletionTime returns the time at which the last target link was covered.
// It returns ok=false while incomplete. An empty target completes at time 0.
func (c *Coverage) CompletionTime() (float64, bool) {
	if !c.Complete() {
		return 0, false
	}
	maxAt := 0.0
	if c.index != nil {
		for _, at := range c.at { // complete: every entry is a coverage time
			if at > maxAt {
				maxAt = at
			}
		}
		return maxAt, true
	}
	for l := range c.target {
		if at := c.first[l]; at > maxAt {
			maxAt = at
		}
	}
	return maxAt, true
}

// Uncovered returns the target links not yet covered, in deterministic
// order. Useful in failure diagnostics.
func (c *Coverage) Uncovered() []topology.Link {
	var out []topology.Link
	if c.index != nil {
		c.forEachTarget(func(l topology.Link, cov bool, at float64) {
			if !cov {
				out = append(out, l)
			}
		})
		return out // the index is ascending (From, To)
	}
	for l := range c.target {
		if _, ok := c.first[l]; !ok {
			out = append(out, l)
		}
	}
	slices.SortFunc(out, cmpLink)
	return out
}

// Curve returns the discovery progress curve as (time, covered-count) steps
// over target links, sorted by time. The curve starts implicitly at (−∞, 0);
// each point is the cumulative count at that coverage instant.
func (c *Coverage) Curve() []CurvePoint {
	times := make([]float64, 0, c.TargetSize()-c.remaining)
	if c.index != nil {
		for i, at := range c.at {
			if c.isCovered(i) {
				times = append(times, at)
			}
		}
	} else {
		for l := range c.target {
			if at, ok := c.first[l]; ok {
				times = append(times, at)
			}
		}
	}
	sort.Float64s(times)
	points := make([]CurvePoint, len(times))
	for i, at := range times {
		points[i] = CurvePoint{Time: at, Covered: i + 1}
	}
	return points
}

// CurvePoint is one step of a discovery progress curve.
type CurvePoint struct {
	Time    float64 `json:"time"`
	Covered int     `json:"covered"`
}

// String summarizes progress.
func (c *Coverage) String() string {
	size := c.TargetSize()
	return fmt.Sprintf("covered %d/%d links", size-c.remaining, size)
}
