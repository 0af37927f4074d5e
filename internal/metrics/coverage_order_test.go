package metrics

// Order-independence of Coverage reports: a link's position in the store
// (index order for indexed links, arrival order for tail links) is an
// implementation detail, so coverages over the same target must report the
// same results whatever order their links were indexed or added in.

import (
	"fmt"
	"testing"

	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// permuted returns a shuffled copy of links.
func permuted(r *rng.Source, links []topology.Link) []topology.Link {
	out := make([]topology.Link, len(links))
	for i, j := range r.Perm(len(links)) {
		out[i] = links[j]
	}
	return out
}

// randomLinks draws n links (duplicates possible) over IDs [0, span).
func randomLinks(r *rng.Source, n, span int) []topology.Link {
	out := make([]topology.Link, n)
	for i := range out {
		out[i] = topology.Link{From: topology.NodeID(r.IntN(span)), To: topology.NodeID(r.IntN(span))}
	}
	return out
}

// TestCoverageReportsIgnoreLinkOrder builds several coverages over one
// random target — static ones from permuted NewCoverage and NewCoverageOn
// inputs, growing ones whose epochs AddTarget the same links (some inside
// the shared index, some in the tail) in permuted orders — replays one
// observation sequence into each, and requires every report to agree
// after every observation: Latencies, Curve, Uncovered, CompletionTime,
// NonTargetObservations, and FirstCovered and BirthTime of every link.
func TestCoverageReportsIgnoreLinkOrder(t *testing.T) {
	root := rng.New(2110)
	for trial := 0; trial < 60; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			span := 4 + r.IntN(30)
			target := randomLinks(r, 1+r.IntN(3*span), span)
			// Probe links outside the target too, including IDs past every
			// row and a negative one.
			probe := append(randomLinks(r, span, span+3), target...)
			probe = append(probe, topology.Link{From: -1, To: 0}, topology.Link{From: 0, To: -1})
			obs := make([]topology.Link, 4*len(target))
			times := make([]float64, len(obs))
			for i := range obs {
				obs[i] = probe[r.IntN(len(probe))]
				times[i] = float64(i / 3) // ties within a slot
			}

			if trial%2 == 0 {
				var covs []*Coverage
				for k := 0; k < 4; k++ {
					covs = append(covs, NewCoverage(permuted(r, target)), NewCoverageOn(NewTargetIndex(permuted(r, target))))
				}
				replayAndCompare(t, covs, obs, times, probe)
				return
			}

			// Growing: a shared index over part of the target plus links never
			// targeted; epochs add the target in batches, each in its own
			// permuted order per coverage, so links outside the index reach
			// the tail in different orders.
			indexed := append(permuted(r, target)[:len(target)/2], randomLinks(r, 3, span)...)
			idx := NewTargetIndex(indexed)
			epochs := 1 + r.IntN(4)
			batches := make([][]topology.Link, epochs)
			for _, l := range target {
				e := r.IntN(epochs)
				batches[e] = append(batches[e], l)
			}
			var covs []*Coverage
			for k := 0; k < 6; k++ {
				covs = append(covs, NewGrowingCoverage(idx))
			}
			per := len(obs) / epochs
			for e, batch := range batches {
				at := float64(e * per / 3)
				for _, c := range covs {
					for _, l := range permuted(r, batch) {
						c.AddTarget(l, at)
					}
				}
				lo, hi := e*per, (e+1)*per
				if e == epochs-1 {
					hi = len(obs)
				}
				replayAndCompare(t, covs, obs[lo:hi], times[lo:hi], probe)
			}
		})
	}
}

// replayAndCompare observes obs[i] at times[i] on every coverage and
// compares every report against the first coverage's after each step.
func replayAndCompare(t *testing.T, covs []*Coverage, obs []topology.Link, times []float64, probe []topology.Link) {
	t.Helper()
	for k, c := range covs[1:] {
		compareCoverage(t, fmt.Sprintf("coverage %d before replay", k+1), c, covs[0], probe)
	}
	for i, l := range obs {
		first := covs[0].Observe(l, times[i])
		for k, c := range covs[1:] {
			if got := c.Observe(l, times[i]); got != first {
				t.Fatalf("observation %d of %v: coverage %d reports first=%v, coverage 0 %v", i, l, k+1, got, first)
			}
			compareCoverage(t, fmt.Sprintf("coverage %d after observation %d", k+1, i), c, covs[0], probe)
		}
	}
}
