package metrics

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// TestCoverageShardsMatchObserve applies rounds of observations to one
// coverage through concurrent shards over random listener ranges — the
// deferred ones through Observe after the round, then Commit — and to
// another through Observe alone, in order. Targets are static, growing
// (index links partly targeted, tail links) and empty-indexed, and each
// round mixes covered, repeated, untargeted and non-index links. After
// every round both must agree on every link's first coverage, Remaining,
// NonTargetObservations and Curve, and each shard may only have left
// links outside its owned words to its caller.
func TestCoverageShardsMatchObserve(t *testing.T) {
	root := rng.New(4242)
	for trial := 0; trial < 40; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			span := r.IntN(60) + 2
			idx := NewTargetIndex(randomLinks(r, r.IntN(600)+1, span))
			var seq, par *Coverage
			switch trial % 3 {
			case 0:
				seq, par = NewCoverageOn(idx), NewCoverageOn(idx)
			case 1:
				seq, par = NewGrowingCoverage(idx), NewGrowingCoverage(idx)
				for _, l := range randomLinks(r, idx.Len()+20, span+5) {
					seq.AddTarget(l, 0)
					par.AddTarget(l, 0)
				}
			default:
				seq, par = NewGrowingCoverage(nil), NewGrowingCoverage(nil)
				for _, l := range randomLinks(r, 50, span) {
					seq.AddTarget(l, 0)
					par.AddTarget(l, 0)
				}
			}
			for round := 0; round < 8; round++ {
				at := float64(round)
				// One observation per listener at most, as a slot delivers.
				obs := make(map[topology.NodeID]topology.Link)
				for _, l := range randomLinks(r, span, span+3) {
					obs[l.To] = l
				}
				var ordered []topology.Link
				for u := topology.NodeID(0); u < topology.NodeID(span+3); u++ {
					if l, ok := obs[u]; ok {
						ordered = append(ordered, l)
					}
				}
				for _, l := range ordered {
					seq.Observe(l, at)
				}
				// Random chunk bounds over the listeners.
				bounds := []topology.NodeID{0, topology.NodeID(span + 3)}
				for k := r.IntN(6); k > 0; k-- {
					bounds = append(bounds, topology.NodeID(r.IntN(span+3)))
				}
				slices.Sort(bounds)
				shards := make([]Shard, len(bounds)-1)
				deferred := make([][]topology.Link, len(shards))
				var wg sync.WaitGroup
				for i := range shards {
					shards[i] = par.Shard(bounds[i], bounds[i+1])
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						for _, l := range ordered {
							if l.To >= bounds[i] && l.To < bounds[i+1] && !shards[i].Observe(l, at) {
								deferred[i] = append(deferred[i], l)
							}
						}
					}(i)
				}
				wg.Wait()
				for i := range shards {
					shards[i].Commit()
					for _, l := range deferred[i] {
						if p := par.index.find(l); p >= 0 && par.targeted(p) && p >= (int(par.index.off[min(int(bounds[i]), len(par.index.off)-1)])+63)&^63 {
							t.Fatalf("round %d: shard %d deferred %v at owned position %d", round, i, l, p)
						}
						par.Observe(l, at)
					}
				}
				if seq.Remaining() != par.Remaining() || seq.NonTargetObservations() != par.NonTargetObservations() {
					t.Fatalf("round %d: remaining %d/%d, non-target %d/%d", round,
						seq.Remaining(), par.Remaining(), seq.NonTargetObservations(), par.NonTargetObservations())
				}
				if !slices.Equal(seq.Curve(), par.Curve()) {
					t.Fatalf("round %d: curves differ", round)
				}
				for from := 0; from < span+3; from++ {
					for to := 0; to < span+3; to++ {
						l := topology.Link{From: topology.NodeID(from), To: topology.NodeID(to)}
						a, aok := seq.FirstCovered(l)
						b, bok := par.FirstCovered(l)
						if a != b || aok != bok {
							t.Fatalf("round %d: link %v first covered (%v, %v) sequential, (%v, %v) sharded", round, l, a, aok, b, bok)
						}
					}
				}
			}
		})
	}
}
