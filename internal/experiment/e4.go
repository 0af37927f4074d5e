package experiment

import (
	"fmt"

	"m2hew/internal/analytic"
	"m2hew/internal/clock"
	"m2hew/internal/core"
	"m2hew/internal/harness"
	"m2hew/internal/metrics"
	"m2hew/internal/rng"
	"m2hew/internal/sim"
	"m2hew/internal/topology"
)

// e4FrameLen is the local frame length L used by the asynchronous
// experiments. Its absolute value is arbitrary (the bounds scale linearly in
// L); 3.0 makes slots unit length.
const e4FrameLen = 3.0

// E4 reproduces Theorems 9 and 10: Algorithm 4, on drifting unsynchronized
// clocks with arbitrary start offsets, completes discovery by the time every
// node has executed (48·max(2S,3Δ_est)/ρ)·ln(N²/ε) full frames after T_s
// (Theorem 9), which caps T_f − T_s at (frames+1)·L/(1−δ) real time
// (Theorem 10).
//
// Rows vary the drift process at the paper's bound δ = 1/7 and below.
// Completion is measured as real time after T_s and as the minimum per-node
// full-frame count at completion; both must sit within their bounds in
// ≥ 1−ε of trials.
func E4(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	n := 12
	trials := opts.Trials
	if opts.Quick {
		n = 6
	}
	type config struct {
		label string
		delta float64
		mk    func(root *rng.Source) (clock.DriftProcess, error)
	}
	configs := []config{
		{"ideal δ=0", 0, func(*rng.Source) (clock.DriftProcess, error) { return clock.Ideal, nil }},
		{"const δ=1e-6", 1e-6, func(*rng.Source) (clock.DriftProcess, error) { return clock.Constant(1e-6), nil }},
		{"walk δ=0.05", 0.05, func(r *rng.Source) (clock.DriftProcess, error) {
			return clock.NewRandomWalk(0.05, 0.01, r)
		}},
		{"walk δ=1/7", clock.MaxAsyncDrift, func(r *rng.Source) (clock.DriftProcess, error) {
			return clock.NewRandomWalk(clock.MaxAsyncDrift, 0.03, r)
		}},
		{"sine δ=1/7", clock.MaxAsyncDrift, func(*rng.Source) (clock.DriftProcess, error) {
			return clock.NewSinusoidal(clock.MaxAsyncDrift, 41, 0.7)
		}},
		{"alt δ=1/7", clock.MaxAsyncDrift, func(*rng.Source) (clock.DriftProcess, error) {
			return clock.NewAlternating(clock.MaxAsyncDrift, 5, false)
		}},
	}
	if opts.Quick {
		configs = configs[:3]
	}
	table := &Table{
		ID:    "E4",
		Title: "Theorems 9+10: Algorithm 4 under clock drift and arbitrary offsets",
		Note: fmt.Sprintf("real time after T_s and min per-node full frames at completion; ε=%.2g, L=%.1f, N=%d CR network",
			opts.Eps, e4FrameLen, n),
		Columns: []string{"frame bound", "time bound", "mean time", "p95 time", "mean frames", "≤bound"},
	}
	root := rng.New(opts.Seed)
	nw, params, err := crNetwork(n, 8, 10, root.Split())
	if err != nil {
		return nil, fmt.Errorf("E4: %w", err)
	}
	deltaEst := nextPow2(params.Delta)
	sc := analytic.Scenario{
		N: params.N, S: params.S, Delta: params.Delta,
		DeltaEst: deltaEst, Rho: params.Rho, Eps: opts.Eps,
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("E4: %w", err)
	}
	frameBound := sc.Theorem9Frames()
	for _, cf := range configs {
		timeBound := sc.Theorem10Span(e4FrameLen, cf.delta)
		// Horizon: the frame bound plus slack for the pre-T_s stagger,
		// capped for tractability. Completion empirically needs well under
		// 4000 frames; a trial that exceeds the cap is counted as a bound
		// failure (conservative), so the cap cannot overstate the claim.
		maxFrames := int(frameBound) + 40
		if maxFrames > 4000 {
			maxFrames = 4000
		}
		// Build all trial configurations sequentially (fixing the random
		// streams), then run the engines in parallel.
		cfgs := make([]sim.AsyncConfig, 0, trials)
		for trial := 0; trial < trials; trial++ {
			nodes := make([]sim.AsyncNode, nw.N())
			for u := 0; u < nw.N(); u++ {
				p, err := core.NewAsync(nw.Avail(topology.NodeID(u)), deltaEst, root.Split())
				if err != nil {
					return nil, fmt.Errorf("E4: %w", err)
				}
				drift, err := cf.mk(root.Split())
				if err != nil {
					return nil, fmt.Errorf("E4: %w", err)
				}
				nodes[u] = sim.AsyncNode{
					Protocol: p,
					Start:    root.Float64() * 10 * e4FrameLen,
					Drift:    drift,
				}
			}
			cfgs = append(cfgs, sim.AsyncConfig{
				Network:   nw,
				Nodes:     nodes,
				FrameLen:  e4FrameLen,
				MaxFrames: maxFrames,
			})
		}
		results, err := harness.AsyncConfigs(cfgs)
		if err != nil {
			return nil, fmt.Errorf("E4: %w", err)
		}
		var afterTs, minFrames []float64
		failures := 0
		for _, res := range results {
			if !res.Complete {
				failures++
				continue
			}
			afterTs = append(afterTs, res.CompletionTime-res.Ts)
			minFrames = append(minFrames, float64(res.MinFullFrames))
		}
		timeSum := metrics.Summarize(afterTs)
		frameSum := metrics.Summarize(minFrames)
		within := metrics.FractionWithin(afterTs, timeBound) *
			float64(len(afterTs)) / float64(trials)
		table.Rows = append(table.Rows, Row{
			Label: cf.label,
			Values: []float64{
				frameBound, timeBound, timeSum.Mean, timeSum.P95, frameSum.Mean, within,
			},
		})
	}
	return table, nil
}
