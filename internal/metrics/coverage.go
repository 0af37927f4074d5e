// Package metrics tracks discovery progress during a simulation and
// aggregates results across trials.
//
// The central type is Coverage: the oracle's view of which directed links
// have been covered (paper terminology: link (v,u) is covered when u hears a
// clear message from v) and when. Engines feed it observations; experiments
// read completion times and progress curves from it. One store serves
// static and dynamic runs alike: a shared read-only TargetIndex per network
// plus, per run, an append-only tail of links added outside it.
// Aggregation helpers summarize repeated trials into the statistics
// EXPERIMENTS.md reports.
package metrics

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"m2hew/internal/topology"
)

// TargetIndex is a static coverage target in CSR form, numbered the way
// the engines enumerate links: row u lists, ascending, the senders v of
// u's target links (v, u) — for a discoverable-link target exactly the
// From column of InboundCandidates row u. Memory is O(links) and a
// membership query is one binary search in the listener's row. An index
// is immutable once built; it is meant to be built once per network and
// shared read-only by every run's Coverage on that network (see
// NewCoverageOn and NewGrowingCoverage).
type TargetIndex struct {
	// off[u] .. off[u+1] is row u's window into from; len(off) is one past
	// the largest To.
	off  []int64
	from []topology.NodeID
}

// NewTargetIndex builds the CSR index of links, in any order: it sorts
// and deduplicates a copy by (To, From), so the caller's slice is never
// modified. It returns nil when a link has a negative endpoint — such
// links have no CSR row.
func NewTargetIndex(links []topology.Link) *TargetIndex {
	for _, l := range links {
		if l.From < 0 || l.To < 0 {
			return nil
		}
	}
	links = slices.Clone(links)
	slices.SortFunc(links, func(a, b topology.Link) int {
		return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(a.From, b.From))
	})
	links = slices.Compact(links)
	rows := 0
	if len(links) > 0 {
		rows = int(links[len(links)-1].To) + 1
	}
	idx := &TargetIndex{
		off:  make([]int64, rows+1),
		from: make([]topology.NodeID, len(links)),
	}
	for i, l := range links {
		idx.off[l.To+1] = int64(i + 1)
		idx.from[i] = l.From
	}
	// Empty rows end where the previous row ends.
	for u := 1; u <= rows; u++ {
		idx.off[u] = max(idx.off[u], idx.off[u-1])
	}
	return idx
}

// NewTargetIndexFromCandidates builds the CSR index of the discoverable
// links straight from an InboundCandidates table: link (v, u) is
// discoverable exactly when v is an inbound candidate of u, and cands[u]
// lists those v ascending, so row u is a copy of cands[u]'s From column.
// The result equals NewTargetIndex(nw.DiscoverableLinks()) for the network
// the table was built from, without materializing or sorting the link
// list: two O(links) arrays, filled in one pass over the table.
func NewTargetIndexFromCandidates(cands [][]topology.Candidate) *TargetIndex {
	// Rows run to the largest listener, as NewTargetIndex sizes them.
	rows, links := 0, 0
	for u, list := range cands {
		if len(list) > 0 {
			links += len(list)
			rows = u + 1
		}
	}
	idx := &TargetIndex{
		off:  make([]int64, rows+1),
		from: make([]topology.NodeID, 0, links),
	}
	for u, list := range cands[:rows] {
		for _, c := range list {
			idx.from = append(idx.from, c.From)
		}
		idx.off[u+1] = int64(len(idx.from))
	}
	return idx
}

// Len returns the number of target links.
func (x *TargetIndex) Len() int { return len(x.from) }

// find returns link l's position in the index, or -1 when l is not a
// target link.
//
//nd:hotpath
func (x *TargetIndex) find(l topology.Link) int {
	if l.To < 0 || int(l.To) >= len(x.off)-1 {
		return -1
	}
	lo, hi := x.off[l.To], x.off[l.To+1]
	for lo < hi {
		mid := (lo + hi) >> 1
		if x.from[mid] < l.From {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < x.off[l.To+1] && x.from[lo] == l.From {
		return int(lo)
	}
	return -1
}

// emptyIndex indexes the empty target; coverages built without an index
// share it.
var emptyIndex = &TargetIndex{off: make([]int64, 1)}

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
// Every link a Coverage knows has a fixed position. The links of a shared,
// read-only TargetIndex come first, in index order (by listener, then
// sender); links added outside the index follow in an append-only tail, in
// arrival order. The first-coverage time, birth time, covered bit and
// targeted bit of each link live in arrays indexed by position, so
// positions never move and the index is never written. No report depends
// on positions: Latencies and Curve sort their times, CompletionTime takes
// a maximum, Uncovered sorts its links, and the rest are counts or
// per-link lookups. A static Coverage (NewCoverageOn) targets every index
// link; a growing one (NewGrowingCoverage) starts empty and targets links
// as AddTarget names them, so only links outside the index reach the tail.
type Coverage struct {
	index   *TargetIndex          // shared, never written: positions [0, index.Len())
	tail    []topology.Link       // position index.Len()+k holds tail[k]
	tailPos map[topology.Link]int // a tail link's position; lookup only

	at   []float64  // first-coverage time per position, meaningful where covered
	born []float64  // birth time per position; nil while every birth is 0
	bits []linkBits // covered and targeted bits, 64 positions per entry

	size      int // targeted links
	remaining int // targeted links not yet covered
	nonTarget int // observations outside the target set (counted, never stored)
}

// linkBits holds the covered and targeted bits of 64 consecutive positions.
type linkBits struct{ covered, targeted uint64 }

// bitOf returns position i's bit within its linkBits entry.
func bitOf(i int) uint64 { return uint64(1) << (uint(i) & 63) }

// NewCoverage returns a Coverage whose completion target is the given links
// (typically Network.DiscoverableLinks()). The target is indexed once for
// this Coverage; callers running many trials on one network build the
// index once with NewTargetIndex and use NewCoverageOn instead.
func NewCoverage(links []topology.Link) *Coverage {
	if idx := NewTargetIndex(links); idx != nil {
		return NewCoverageOn(idx)
	}
	// A negative endpoint has no CSR row: the whole target is tail.
	c := NewGrowingCoverage(nil)
	for _, l := range links {
		c.AddTarget(l, 0)
	}
	return c
}

// NewCoverageOn returns a Coverage whose completion target is the indexed
// links. The index is shared, not copied: the Coverage only reads it, so
// one index serves any number of concurrent or later runs. A nil index
// gives an empty target, like NewCoverage(nil).
func NewCoverageOn(idx *TargetIndex) *Coverage {
	c := NewGrowingCoverage(idx)
	n := c.index.Len()
	for k := range c.bits {
		c.bits[k].targeted = ^uint64(0)
	}
	if n&63 != 0 {
		c.bits[len(c.bits)-1].targeted = bitOf(n) - 1
	}
	c.size, c.remaining = n, n
	return c
}

// NewGrowingCoverage returns a Coverage with an empty target that AddTarget
// grows, over a shared index that fixes the positions of the links it may
// target: dynamic runs pass the static network's index, so links that only
// ever lose endpoints or channels (churn, primary users) stay in it and
// only new links (mobility) reach the tail. A nil index puts every added
// link in the tail.
func NewGrowingCoverage(idx *TargetIndex) *Coverage {
	if idx == nil {
		idx = emptyIndex
	}
	return &Coverage{
		index: idx,
		at:    make([]float64, idx.Len()),
		bits:  make([]linkBits, (idx.Len()+63)/64),
	}
}

// position returns link l's position, or -1 when l is neither in the index
// nor in the tail.
//
//nd:hotpath
func (c *Coverage) position(l topology.Link) int {
	if i := c.index.find(l); i >= 0 {
		return i
	}
	if i, ok := c.tailPos[l]; ok {
		return i
	}
	return -1
}

// targeted reports whether position i is a target link; covered whether it
// has been covered. Both accept -1 (no position) and report false.
func (c *Coverage) targeted(i int) bool { return i >= 0 && c.bits[i>>6].targeted&bitOf(i) != 0 }
func (c *Coverage) covered(i int) bool  { return i >= 0 && c.bits[i>>6].covered&bitOf(i) != 0 }

// bornAt returns position i's birth time.
func (c *Coverage) bornAt(i int) float64 {
	if c.born == nil {
		return 0
	}
	return c.born[i]
}

// Observe records that link l was covered at the given time. It returns true
// if this is the first coverage of a target link. Observations of non-target
// links are counted (see NonTargetObservations) but never stored: storing
// them would let a mis-wired caller grow the state without bound, and the
// engines cannot produce any — a delivery implies a discoverable link, and
// the target is exactly the discoverable-link set.
//
//nd:hotpath
func (c *Coverage) Observe(l topology.Link, at float64) bool {
	i := c.position(l)
	if !c.targeted(i) {
		c.nonTarget++
		return false
	}
	if c.covered(i) {
		return false
	}
	c.bits[i>>6].covered |= bitOf(i)
	c.at[i] = at
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
	i := c.position(l)
	if i < 0 {
		i = c.appendTail(l)
	} else if c.targeted(i) {
		return false
	}
	c.bits[i>>6].targeted |= bitOf(i)
	c.size++
	c.remaining++
	if at != 0 {
		if c.born == nil {
			c.born = make([]float64, len(c.at), cap(c.at))
		}
		c.born[i] = at
	}
	return true
}

// appendTail gives link l the next position and returns it.
func (c *Coverage) appendTail(l topology.Link) int {
	i := len(c.at)
	if c.tailPos == nil {
		c.tailPos = make(map[topology.Link]int)
	}
	c.tailPos[l] = i
	c.tail = append(c.tail, l)
	c.at = append(c.at, 0)
	if c.born != nil {
		c.born = append(c.born, 0)
	}
	if i&63 == 0 {
		c.bits = append(c.bits, linkBits{})
	}
	return i
}

// BirthTime returns when link l entered the target set: the AddTarget time,
// or 0 for links in the initial (constructor) target. ok is false for links
// outside the target.
func (c *Coverage) BirthTime(l topology.Link) (float64, bool) {
	i := c.position(l)
	if !c.targeted(i) {
		return 0, false
	}
	return c.bornAt(i), true
}

// Latencies returns the discovery latency — first-coverage time minus birth
// time — of every covered target link, sorted ascending. For static runs
// (all links born at 0) this is simply the sorted first-coverage times.
func (c *Coverage) Latencies() []float64 { return c.coveredTimes(true) }

// coveredTimes returns the first-coverage times of the covered links,
// each less its birth time when sinceBirth is set, sorted ascending.
func (c *Coverage) coveredTimes(sinceBirth bool) []float64 {
	out := make([]float64, 0, c.size-c.remaining)
	for i, at := range c.at {
		if c.covered(i) {
			if sinceBirth {
				at -= c.bornAt(i)
			}
			out = append(out, at)
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
func (c *Coverage) TargetSize() int { return c.size }

// Progress returns the covered fraction of the target in [0,1]; it is 1 for
// an empty target.
func (c *Coverage) Progress() float64 {
	if c.size == 0 {
		return 1
	}
	return float64(c.size-c.remaining) / float64(c.size)
}

// FirstCovered returns when link l was first covered. Only target links are
// ever recorded.
func (c *Coverage) FirstCovered(l topology.Link) (float64, bool) {
	i := c.position(l)
	if !c.covered(i) {
		return 0, false
	}
	return c.at[i], true
}

// CompletionTime returns the time at which the last target link was covered.
// It returns ok=false while incomplete. An empty target completes at time 0.
func (c *Coverage) CompletionTime() (float64, bool) {
	if !c.Complete() {
		return 0, false
	}
	maxAt := 0.0
	for _, at := range c.at { // uncovered positions hold 0
		if at > maxAt {
			maxAt = at
		}
	}
	return maxAt, true
}

// Uncovered returns the target links not yet covered, ascending by
// (From, To). Useful in failure diagnostics.
func (c *Coverage) Uncovered() []topology.Link {
	var out []topology.Link
	for u := 0; u+1 < len(c.index.off); u++ {
		for i := c.index.off[u]; i < c.index.off[u+1]; i++ {
			if c.targeted(int(i)) && !c.covered(int(i)) {
				out = append(out, topology.Link{From: c.index.from[i], To: topology.NodeID(u)})
			}
		}
	}
	for k, l := range c.tail {
		if i := c.index.Len() + k; c.targeted(i) && !c.covered(i) {
			out = append(out, l)
		}
	}
	slices.SortFunc(out, topology.CompareLinks)
	return out
}

// Curve returns the discovery progress curve as (time, covered-count) steps
// over target links, sorted by time. The curve starts implicitly at (−∞, 0);
// each point is the cumulative count at that coverage instant.
func (c *Coverage) Curve() []CurvePoint {
	times := c.coveredTimes(false)
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
	return fmt.Sprintf("covered %d/%d links", c.size-c.remaining, c.size)
}
