package metrics

// Property tests for Coverage against a map oracle: random operation
// streams over small-ID targets (the range a dense n² backing once served)
// must agree with an independent reference model after every operation,
// on static and growing targets, with links both inside the shared index
// and in the append-only tail. The test names predate the removal of the
// dense and map backings and are kept so their history stays traceable.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// coverageView is the observable surface of Coverage, implemented by the
// oracle too.
type coverageView interface {
	Complete() bool
	Remaining() int
	TargetSize() int
	NonTargetObservations() int
	Progress() float64
	String() string
	Latencies() []float64
	Uncovered() []topology.Link
	Curve() []CurvePoint
	CompletionTime() (float64, bool)
	FirstCovered(l topology.Link) (float64, bool)
	BirthTime(l topology.Link) (float64, bool)
}

// coverageOracle is the reference model: three maps and the definitions.
type coverageOracle struct {
	target    map[topology.Link]bool
	first     map[topology.Link]float64
	born      map[topology.Link]float64
	nonTarget int
}

func newCoverageOracle(links []topology.Link) *coverageOracle {
	o := &coverageOracle{
		target: map[topology.Link]bool{},
		first:  map[topology.Link]float64{},
		born:   map[topology.Link]float64{},
	}
	for _, l := range links {
		o.target[l] = true
	}
	return o
}

func (o *coverageOracle) Observe(l topology.Link, at float64) bool {
	if !o.target[l] {
		o.nonTarget++
		return false
	}
	if _, ok := o.first[l]; ok {
		return false
	}
	o.first[l] = at
	return true
}

func (o *coverageOracle) AddTarget(l topology.Link, at float64) bool {
	if o.target[l] {
		return false
	}
	o.target[l] = true
	if at != 0 {
		o.born[l] = at
	}
	return true
}

func (o *coverageOracle) Complete() bool             { return o.Remaining() == 0 }
func (o *coverageOracle) Remaining() int             { return len(o.target) - len(o.first) }
func (o *coverageOracle) TargetSize() int            { return len(o.target) }
func (o *coverageOracle) NonTargetObservations() int { return o.nonTarget }

func (o *coverageOracle) Progress() float64 {
	if len(o.target) == 0 {
		return 1
	}
	return float64(len(o.first)) / float64(len(o.target))
}

func (o *coverageOracle) String() string {
	return fmt.Sprintf("covered %d/%d links", len(o.first), len(o.target))
}

func (o *coverageOracle) Latencies() []float64 {
	out := make([]float64, 0, len(o.first))
	for l, at := range o.first {
		out = append(out, at-o.born[l])
	}
	sort.Float64s(out)
	return out
}

func (o *coverageOracle) Uncovered() []topology.Link {
	var out []topology.Link
	for l := range o.target {
		if _, ok := o.first[l]; !ok {
			out = append(out, l)
		}
	}
	slices.SortFunc(out, topology.CompareLinks)
	return out
}

func (o *coverageOracle) Curve() []CurvePoint {
	var times []float64
	for _, at := range o.first {
		times = append(times, at)
	}
	sort.Float64s(times)
	points := make([]CurvePoint, len(times))
	for i, at := range times {
		points[i] = CurvePoint{Time: at, Covered: i + 1}
	}
	return points
}

func (o *coverageOracle) CompletionTime() (float64, bool) {
	if !o.Complete() {
		return 0, false
	}
	maxAt := 0.0
	for _, at := range o.first {
		if at > maxAt {
			maxAt = at
		}
	}
	return maxAt, true
}

func (o *coverageOracle) FirstCovered(l topology.Link) (float64, bool) {
	at, ok := o.first[l]
	return at, ok
}

func (o *coverageOracle) BirthTime(l topology.Link) (float64, bool) {
	if !o.target[l] {
		return 0, false
	}
	return o.born[l], true
}

// compareCoverage asserts every observable of got agrees with want. probe
// is the set of links worth asking point queries about (targets,
// non-targets, out-of-range).
func compareCoverage(t *testing.T, step string, got, want coverageView, probe []topology.Link) {
	t.Helper()
	if a, b := got.Complete(), want.Complete(); a != b {
		t.Fatalf("%s: Complete %v vs %v", step, a, b)
	}
	if a, b := got.Remaining(), want.Remaining(); a != b {
		t.Fatalf("%s: Remaining %d vs %d", step, a, b)
	}
	if a, b := got.TargetSize(), want.TargetSize(); a != b {
		t.Fatalf("%s: TargetSize %d vs %d", step, a, b)
	}
	if a, b := got.NonTargetObservations(), want.NonTargetObservations(); a != b {
		t.Fatalf("%s: NonTargetObservations %d vs %d", step, a, b)
	}
	if a, b := got.Progress(), want.Progress(); a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
		t.Fatalf("%s: Progress %v vs %v", step, a, b)
	}
	if a, b := got.String(), want.String(); a != b {
		t.Fatalf("%s: String %q vs %q", step, a, b)
	}
	if a, b := got.Latencies(), want.Latencies(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: Latencies %v vs %v", step, a, b)
	}
	if a, b := got.Uncovered(), want.Uncovered(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: Uncovered %v vs %v", step, a, b)
	}
	if a, b := got.Curve(), want.Curve(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: Curve %v vs %v", step, a, b)
	}
	at1, ok1 := got.CompletionTime()
	at2, ok2 := want.CompletionTime()
	if at1 != at2 || ok1 != ok2 {
		t.Fatalf("%s: CompletionTime (%v,%v) vs (%v,%v)", step, at1, ok1, at2, ok2)
	}
	for _, l := range probe {
		fa, foka := got.FirstCovered(l)
		fb, fokb := want.FirstCovered(l)
		if fa != fb || foka != fokb {
			t.Fatalf("%s: FirstCovered(%v) (%v,%v) vs (%v,%v)", step, l, fa, foka, fb, fokb)
		}
		ba, boka := got.BirthTime(l)
		bb, bokb := want.BirthTime(l)
		if ba != bb || boka != bokb {
			t.Fatalf("%s: BirthTime(%v) (%v,%v) vs (%v,%v)", step, l, ba, boka, bb, bokb)
		}
	}
}

// coverageOps drives identical random operation streams through a
// Coverage and the oracle, comparing every observable after every
// operation. probe collects every link worth a point query.
type coverageOps struct {
	t      *testing.T
	r      *rng.Source
	cov    *Coverage
	oracle *coverageOracle
	probe  []topology.Link
}

// run applies ops operations at times t0, t0+1, …: with probability add an
// AddTarget of addLink(), born at 0 or at the operation's time, else an
// Observe of obsLink().
func (o *coverageOps) run(label string, ops int, t0, add float64, addLink, obsLink func() topology.Link) {
	o.t.Helper()
	for op := 0; op < ops; op++ {
		at := t0 + float64(op)
		if o.r.Bernoulli(add) {
			l, birth := addLink(), 0.0
			if o.r.Bernoulli(0.5) {
				birth = at
			}
			if a, b := o.cov.AddTarget(l, birth), o.oracle.AddTarget(l, birth); a != b {
				o.t.Fatalf("%s op %d: AddTarget(%v, %v) %v vs %v", label, op, l, birth, a, b)
			}
			o.probe = append(o.probe, l)
		} else {
			l := obsLink()
			if a, b := o.cov.Observe(l, at), o.oracle.Observe(l, at); a != b {
				o.t.Fatalf("%s op %d: Observe(%v) %v vs %v", label, op, l, a, b)
			}
		}
		compareCoverage(o.t, fmt.Sprintf("%s op %d", label, op), o.cov, o.oracle, o.probe)
	}
}

// newCoverageOps builds the Coverage and oracle of one trial on target
// links: kind 0 through NewCoverage, 1 on a shared TargetIndex
// (NewCoverageOn), 2 as an empty growing target over that index
// (NewGrowingCoverage), whose oracle starts empty too.
func newCoverageOps(t *testing.T, r *rng.Source, kind int, links []topology.Link) *coverageOps {
	o := &coverageOps{t: t, r: r, probe: slices.Clone(links)}
	switch kind {
	case 0:
		o.cov, o.oracle = NewCoverage(links), newCoverageOracle(links)
	case 1:
		o.cov, o.oracle = NewCoverageOn(NewTargetIndex(links)), newCoverageOracle(links)
	default:
		o.cov, o.oracle = NewGrowingCoverage(NewTargetIndex(links)), newCoverageOracle(nil)
	}
	return o
}

// TestCoverageDenseMapEquivalence drives identical random operation streams
// through a Coverage on a small-ID target and the oracle and requires every
// observable to agree after every operation. Targets come unsorted and
// with duplicates, and each trial builds its Coverage one of three ways
// (see newCoverageOps). The first phase mixes first and repeat
// observations of in- and out-of-target links, negative and over-range
// IDs, with AddTarget of the initial links — re-adds on a static target,
// births on a growing one. The second grows the target past the index
// with new links in the tail, and keeps observing and re-adding.
func TestCoverageDenseMapEquivalence(t *testing.T) {
	root := rng.New(20260811)
	for trial := 0; trial < 50; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			const span = 12
			nLinks := r.IntN(20) + 1
			var links []topology.Link
			for i := 0; i < nLinks; i++ {
				links = append(links, topology.Link{
					From: topology.NodeID(r.IntN(span)),
					To:   topology.NodeID(r.IntN(span)),
				})
			}
			o := newCoverageOps(t, r, trial%3, links)
			o.probe = append(o.probe,
				topology.Link{From: -1, To: 0},
				topology.Link{From: 0, To: 1 << 20},
				topology.Link{From: span + 1, To: span + 2},
			)

			randomLink := func() topology.Link {
				switch r.IntN(10) {
				case 0:
					return topology.Link{From: -1, To: topology.NodeID(r.IntN(span))}
				case 1:
					return topology.Link{
						From: topology.NodeID(span + r.IntN(4)),
						To:   topology.NodeID(r.IntN(span)),
					}
				default:
					return topology.Link{
						From: topology.NodeID(r.IntN(span)),
						To:   topology.NodeID(r.IntN(span)),
					}
				}
			}
			initial := func() topology.Link { return links[r.IntN(len(links))] }
			mostlyInitial := func() topology.Link {
				if r.Bernoulli(0.7) {
					return initial()
				}
				return randomLink()
			}
			o.run("initial", r.IntN(60)+20, 0, 0.1, initial, mostlyInitial)

			// Growth past the index: new links take tail positions while the
			// index links keep theirs.
			big := topology.Link{From: 1<<20 + 1, To: 0}
			withBig := func() topology.Link {
				if r.Bernoulli(0.3) {
					return big
				}
				return randomLink()
			}
			o.run("grown", 20, 1000, 0.2, withBig, withBig)
		})
	}
}

// TestCoverageDenseStrideSelection pins the store's layout for small-ID
// targets, the range the removed dense backing used to take: a
// non-negative target — sorted or not, duplicated or not — is indexed
// (unsorted input on a sorted, deduplicated copy, never in place) with one
// position per link and no tail; an empty target shares the empty index;
// a target with a negative ID has no CSR row, so it lives in the tail.
func TestCoverageDenseStrideSelection(t *testing.T) {
	for name, c := range map[string]*Coverage{
		"NewCoverage(nil)":        NewCoverage(nil),
		"NewCoverageOn(nil)":      NewCoverageOn(nil),
		"NewGrowingCoverage(nil)": NewGrowingCoverage(nil),
	} {
		if c.index.Len() != 0 || len(c.at) != 0 || len(c.tail) != 0 || c.TargetSize() != 0 || !c.Complete() {
			t.Errorf("%s: not an empty target", name)
		}
	}
	edge := []topology.Link{{From: 1023, To: 0}}
	if c := NewCoverage(edge); c.index.Len() != 1 || len(c.at) != 1 || len(c.bits) != 1 || c.TargetSize() != 1 {
		t.Errorf("single small-ID link: want one indexed position")
	}
	unsorted := []topology.Link{{From: 3, To: 1}, {From: 0, To: 2}, {From: 3, To: 1}, {From: 0, To: 1}}
	orig := slices.Clone(unsorted)
	c := NewCoverage(unsorted)
	if c.index.Len() != 3 || len(c.tail) != 0 || c.TargetSize() != 3 {
		t.Fatalf("unsorted duplicated target: %d indexed, %d tail, size %d; want 3 indexed", c.index.Len(), len(c.tail), c.TargetSize())
	}
	if !slices.Equal(unsorted, orig) {
		t.Errorf("indexing modified the caller's links: %v", unsorted)
	}
	neg := []topology.Link{{From: -1, To: 0}, {From: 2, To: 1}, {From: -1, To: 0}}
	if c := NewCoverage(neg); c.index.Len() != 0 || len(c.tail) != 2 || c.TargetSize() != 2 {
		t.Errorf("negative ID: %d indexed, %d tail, size %d; want a 2-link tail", c.index.Len(), len(c.tail), c.TargetSize())
	}
}
