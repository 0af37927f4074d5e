package metrics

// Property tests for Coverage against a map oracle: random operation
// streams over small-ID targets (the range a dense n² backing once served;
// the CSR backing serves it now) must agree with an independent reference
// model after every operation, including across the migration to the map
// backing that an out-of-target AddTarget forces. The test names predate
// the removal of the dense backing and are kept so their history stays
// traceable.

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

// TestCoverageDenseMapEquivalence drives identical random operation streams
// through a Coverage on a small-ID target and the oracle and requires every
// observable to agree after every operation. Targets come unsorted and
// with duplicates; odd trials build the Coverage on a shared TargetIndex
// (NewCoverageOn), even trials through NewCoverage. The stream mixes first
// and repeat observations, in- and out-of-target links, negative and
// over-range IDs, AddTarget of existing links, and finally a novel
// AddTarget that forces the CSR side through its migration to maps.
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
			var cov *Coverage
			if trial%2 == 1 {
				cov = NewCoverageOn(NewTargetIndex(links))
			} else {
				cov = NewCoverage(links)
			}
			if cov.index == nil {
				t.Fatal("a non-negative static target did not choose the CSR backing")
			}
			oracle := newCoverageOracle(links)

			probe := append([]topology.Link(nil), links...)
			probe = append(probe,
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

			ops := r.IntN(60) + 20
			for op := 0; op < ops; op++ {
				at := float64(op)
				if r.Bernoulli(0.1) {
					// Re-adding an existing target link is a no-op that keeps
					// the CSR backing.
					l := links[r.IntN(len(links))]
					if a, b := cov.AddTarget(l, at), oracle.AddTarget(l, at); a || b {
						t.Fatalf("op %d: re-AddTarget(%v) %v/%v", op, l, a, b)
					}
					if cov.index == nil {
						t.Fatalf("op %d: re-AddTarget migrated the CSR backing", op)
					}
				} else {
					var l topology.Link
					if r.Bernoulli(0.7) {
						l = links[r.IntN(len(links))]
					} else {
						l = randomLink()
					}
					if a, b := cov.Observe(l, at), oracle.Observe(l, at); a != b {
						t.Fatalf("op %d: Observe(%v) %v vs %v", op, l, a, b)
					}
				}
				compareCoverage(t, fmt.Sprintf("op %d", op), cov, oracle, probe)
			}

			// A novel AddTarget migrates the CSR side to maps; the oracle
			// just grows. Agreement must survive the transition and the
			// operations after it, including further AddTarget growth.
			big := topology.Link{From: 1<<20 + 1, To: 0}
			if a, b := cov.AddTarget(big, 3.5), oracle.AddTarget(big, 3.5); a != b {
				t.Fatalf("big AddTarget %v vs %v", a, b)
			}
			if cov.index != nil {
				t.Fatal("novel AddTarget did not migrate the CSR backing")
			}
			probe = append(probe, big)
			compareCoverage(t, "post-migrate", cov, oracle, probe)
			for op := 0; op < 20; op++ {
				at := 1000 + float64(op)
				l := randomLink()
				if r.Bernoulli(0.3) {
					l = big
				}
				if r.Bernoulli(0.2) {
					birth := 0.0
					if r.Bernoulli(0.5) {
						birth = at
					}
					if a, b := cov.AddTarget(l, birth), oracle.AddTarget(l, birth); a != b {
						t.Fatalf("post-migrate op %d: AddTarget(%v) %v vs %v", op, l, a, b)
					}
					probe = append(probe, l)
				} else if a, b := cov.Observe(l, at), oracle.Observe(l, at); a != b {
					t.Fatalf("post-migrate op %d: Observe(%v) %v vs %v", op, l, a, b)
				}
				compareCoverage(t, fmt.Sprintf("post-migrate op %d", op), cov, oracle, probe)
			}
		})
	}
}

// TestCoverageDenseStrideSelection pins backing selection for small-ID
// targets, the range the removed dense backing used to take: a non-empty
// non-negative target — sorted or not, duplicated or not — is CSR-indexed
// (unsorted input on a sorted, deduplicated copy, never in place); an
// empty or negative-ID target is map-backed.
func TestCoverageDenseStrideSelection(t *testing.T) {
	if c := NewCoverage(nil); c.index != nil {
		t.Error("empty target chose the CSR backing")
	}
	if c := NewCoverageOn(nil); c.index != nil || c.TargetSize() != 0 || !c.Complete() {
		t.Error("nil index did not give an empty map-backed target")
	}
	edge := []topology.Link{{From: 1023, To: 0}}
	if c := NewCoverage(edge); c.index == nil || len(c.at) != 1 || len(c.covered) != 1 {
		t.Errorf("single small-ID link: want one CSR slot")
	}
	unsorted := []topology.Link{{From: 3, To: 1}, {From: 0, To: 2}, {From: 3, To: 1}, {From: 0, To: 1}}
	orig := slices.Clone(unsorted)
	c := NewCoverage(unsorted)
	if c.index == nil || c.TargetSize() != 3 {
		t.Fatalf("unsorted duplicated target: index %v, size %d, want CSR of 3", c.index != nil, c.TargetSize())
	}
	if !slices.Equal(unsorted, orig) {
		t.Errorf("indexing modified the caller's links: %v", unsorted)
	}
	if c := NewCoverage([]topology.Link{{From: -1, To: 0}}); c.index != nil {
		t.Error("negative ID chose the CSR backing")
	}
}
