package experiment

import (
	"fmt"

	"m2hew/internal/clock"
	"m2hew/internal/core"
	"m2hew/internal/harness"
	"m2hew/internal/metrics"
	"m2hew/internal/rng"
	"m2hew/internal/sim"
	"m2hew/internal/topology"
)

// E9 probes why Assumption 1 (δ ≤ 1/7) is load-bearing: it sweeps the drift
// bound past the thresholds the proofs use (1/7 for Lemma 7's alignment
// window, 1/5 and 1/3 for its containment sub-claims and Lemma 4) under
// adversarial alternating drift with opposite phases, and measures:
//
//   - the Lemma 7 alignment success rate and Lemma 4 max overlap (the
//     structural guarantees), and
//   - Algorithm 4's completion time on a small network (the end-to-end
//     effect — the algorithm may keep working above 1/7 since the lemmas
//     are sufficient, not necessary; what disappears is the guarantee).
func E9(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	deltas := []float64{0, 0.05, clock.MaxAsyncDrift, 0.2, 0.3, 0.45}
	if opts.Quick {
		deltas = []float64{0, clock.MaxAsyncDrift, 0.45}
	}
	framesPerPair := 300
	n := 6
	table := &Table{
		ID:    "E9",
		Title: "Drift sensitivity: structural lemmas and completion time across δ",
		Note: fmt.Sprintf("structural audit: constant opposite drifts ±δ (unbounded skew growth); network: alternating drift, ring N=%d; %d trials",
			n, opts.Trials),
		Columns: []string{"align rate", "max overlap", "mean time", "p95 time", "incomplete"},
	}
	type pairJob struct {
		a, b   *clock.Timeline
		probes []float64
	}
	type pairAudit struct {
		alignOK    int
		maxOverlap int
	}
	const probesPerPair = 50
	root := rng.New(opts.Seed)
	for _, delta := range deltas {
		delta := delta
		// Structural audit on adversarial timeline pairs; randomness is
		// drawn in the sequential setup phase in the same stream order as a
		// sequential audit, the lemma checks run on the pool.
		audits, err := harness.Trials(opts.Trials,
			func(int) (pairJob, error) {
				offset := float64(root.Float64() * 4 * e4FrameLen)
				a, b, err := adversarialPair(delta, offset)
				if err != nil {
					return pairJob{}, err
				}
				probes := make([]float64, probesPerPair)
				for i := range probes {
					probes[i] = offset + root.Float64()*float64(framesPerPair-10)*e4FrameLen/(1+delta)
				}
				return pairJob{a: a, b: b, probes: probes}, nil
			},
			func(_ int, job pairJob) (pairAudit, error) {
				var audit pairAudit
				audit.maxOverlap = sim.MaxOverlap(job.a, job.b, framesPerPair)
				if o := sim.MaxOverlap(job.b, job.a, framesPerPair); o > audit.maxOverlap {
					audit.maxOverlap = o
				}
				for _, t := range job.probes {
					if _, ok := sim.FindAlignedPairAfter(job.a, job.b, t); ok {
						audit.alignOK++
					}
				}
				return audit, nil
			})
		if err != nil {
			return nil, fmt.Errorf("E9 δ=%.2f: %w", delta, err)
		}
		alignChecks, alignOK, maxOverlap := 0, 0, 0
		for _, audit := range audits {
			alignChecks += probesPerPair
			alignOK += audit.alignOK
			if audit.maxOverlap > maxOverlap {
				maxOverlap = audit.maxOverlap
			}
		}

		// End-to-end effect on Algorithm 4.
		nw, err := topology.Ring(n)
		if err != nil {
			return nil, fmt.Errorf("E9: %w", err)
		}
		if err := topology.AssignHomogeneous(nw, 2); err != nil {
			return nil, fmt.Errorf("E9: %w", err)
		}
		params := nw.ComputeParams()
		deltaEst := nextPow2(params.Delta)
		cfgs := make([]sim.AsyncConfig, 0, opts.Trials)
		for trial := 0; trial < opts.Trials; trial++ {
			nodes := make([]sim.AsyncNode, nw.N())
			for u := 0; u < nw.N(); u++ {
				proto, err := core.NewAsync(nw.Avail(topology.NodeID(u)), deltaEst, root.Split())
				if err != nil {
					return nil, fmt.Errorf("E9: %w", err)
				}
				var drift clock.DriftProcess = clock.Ideal
				if delta > 0 {
					drift, err = clock.NewAlternating(delta, 4, u%2 == 1)
					if err != nil {
						return nil, fmt.Errorf("E9: %w", err)
					}
				}
				nodes[u] = sim.AsyncNode{
					Protocol: proto,
					Start:    root.Float64() * 5 * e4FrameLen,
					Drift:    drift,
				}
			}
			cfgs = append(cfgs, sim.AsyncConfig{
				Network:   nw,
				Nodes:     nodes,
				FrameLen:  e4FrameLen,
				MaxFrames: 3000,
			})
		}
		results, err := harness.AsyncConfigs(cfgs)
		if err != nil {
			return nil, fmt.Errorf("E9: %w", err)
		}
		var times []float64
		incomplete := 0
		for _, res := range results {
			if !res.Complete {
				incomplete++
				continue
			}
			times = append(times, res.CompletionTime-res.Ts)
		}
		sum := metrics.Summarize(times)
		table.Rows = append(table.Rows, Row{
			Label: fmt.Sprintf("δ=%.3f", delta),
			Values: []float64{
				float64(alignOK) / float64(alignChecks),
				float64(maxOverlap),
				sum.Mean, sum.P95, float64(incomplete),
			},
		})
	}
	return table, nil
}

// adversarialPair builds two timelines with constant opposite drift at bound
// delta — the worst case for the frame lemmas, since relative skew grows
// without bound and every phase relationship is eventually visited.
func adversarialPair(delta, offset float64) (*clock.Timeline, *clock.Timeline, error) {
	a, err := clock.NewTimeline(0, e4FrameLen, 3, clock.Constant(delta))
	if err != nil {
		return nil, nil, err
	}
	b, err := clock.NewTimeline(offset, e4FrameLen, 3, clock.Constant(-delta))
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}
