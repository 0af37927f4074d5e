package experiment

import (
	"fmt"

	"m2hew/internal/analytic"
	"m2hew/internal/channel"
	"m2hew/internal/clock"
	"m2hew/internal/core"
	"m2hew/internal/harness"
	"m2hew/internal/rng"
	"m2hew/internal/sim"
	"m2hew/internal/topology"
)

// E5 reproduces the per-unit coverage probability bounds: Eq. (6) for a
// synchronous Algorithm 1 stage (≥ ρ/(16·max(S,Δ))) and Lemma 5 for an
// aligned asynchronous frame pair (≥ ρ/(8·max(2S,3Δ_est))).
//
// The instrumented scenario is a star: hub u listens for transmitter v = 1
// while Δ−1 additional neighbors contend. All nodes run the real protocol
// (everyone both transmits and listens per their schedule); the measurement
// counts, over a long run, the fraction of stages (resp. receiver frames)
// in which the designated link (v,u) is covered. The paper's claim holds if
// every empirical frequency is at or above its bound; since the bounds chain
// several worst-case inequalities, empirical values sit well above them.
func E5(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	type config struct {
		s     int // channels per node (homogeneous: S = |A(u)|)
		delta int // hub degree Δ
	}
	configs := []config{
		{1, 2}, {2, 2}, {4, 4}, {8, 4},
	}
	if opts.Quick {
		configs = configs[:2]
	}
	units := 40000
	if opts.Quick {
		units = 6000
	}
	table := &Table{
		ID:    "E5",
		Title: "Eq.(6) and Lemma 5: per-stage / per-frame link coverage probability",
		Note: fmt.Sprintf("star with hub degree Δ, homogeneous S channels; empirical frequency over %d units vs lower bound",
			units),
		Columns: []string{"eq6 bound", "sync measured", "sync/bound", "lem5 bound", "async measured", "async/bound"},
	}
	// Prepare every row's instrumented runs first, row by row and sync
	// before async (fixing the random streams), then execute them all in
	// one batch through the harness, so each worker's scratch carries over
	// from row to row; the runs only touch their own pre-split sources.
	root := rng.New(opts.Seed)
	var (
		jobs   []func(*harness.Scratch) (float64, error)
		labels []string
		bounds [][2]float64 // per row: Eq. (6) and Lemma 5 bounds
	)
	for _, cf := range configs {
		nw, err := topology.Star(cf.delta + 1)
		if err != nil {
			return nil, fmt.Errorf("E5: %w", err)
		}
		if err := topology.AssignHomogeneous(nw, cf.s); err != nil {
			return nil, fmt.Errorf("E5: %w", err)
		}
		params := nw.ComputeParams()
		deltaEst := nextPow2(params.Delta)
		sc := analytic.Scenario{
			N: params.N, S: params.S, Delta: params.Delta,
			DeltaEst: deltaEst, Rho: params.Rho, Eps: opts.Eps,
		}
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("E5: %w", err)
		}
		syncJob, err := e5SyncJob(nw, deltaEst, units, root)
		if err != nil {
			return nil, fmt.Errorf("E5 sync: %w", err)
		}
		asyncJob, err := e5AsyncJob(nw, deltaEst, units, root)
		if err != nil {
			return nil, fmt.Errorf("E5 async: %w", err)
		}
		jobs = append(jobs, syncJob, asyncJob)
		labels = append(labels, fmt.Sprintf("S=%d Δ=%d", cf.s, cf.delta))
		bounds = append(bounds, [2]float64{sc.Eq6CoverageBound(), sc.Lemma5CoverageBound()})
	}
	freqs := make([]float64, len(jobs))
	if err := harness.RunScratch(len(jobs), func(i int, sc *harness.Scratch) error {
		f, err := jobs[i](sc)
		if err != nil {
			return err
		}
		freqs[i] = f
		return nil
	}); err != nil {
		return nil, fmt.Errorf("E5: %w", err)
	}
	for i, label := range labels {
		syncFreq, asyncFreq := freqs[2*i], freqs[2*i+1]
		eq6, lem5 := bounds[i][0], bounds[i][1]
		table.Rows = append(table.Rows, Row{
			Label: label,
			Values: []float64{
				eq6, syncFreq, syncFreq / eq6,
				lem5, asyncFreq, asyncFreq / lem5,
			},
		})
	}
	return table, nil
}

// e5SyncJob prepares a run measuring the fraction of Algorithm 1 stages in
// which the link (1 → hub 0) is covered. Protocol construction (and hence
// all root-stream consumption) happens before the returned job runs.
func e5SyncJob(nw *topology.Network, deltaEst, stages int, root *rng.Source) (func(*harness.Scratch) (float64, error), error) {
	stageLen := core.StageLen(deltaEst)
	protos := make([]sim.SyncProtocol, nw.N())
	for u := 0; u < nw.N(); u++ {
		p, err := core.NewSyncStaged(nw.Avail(topology.NodeID(u)), deltaEst, root.Split())
		if err != nil {
			return nil, err
		}
		protos[u] = p
	}
	return func(sc *harness.Scratch) (float64, error) {
		covered := make(map[int]bool, stages)
		_, err := sim.RunSync(sim.SyncConfig{
			Network:       nw,
			Protocols:     protos,
			MaxSlots:      stages * stageLen,
			RunToMaxSlots: true,
			Scratch:       sc.Sync(),
			Observer: sim.DeliverObserver(func(at float64, from, to topology.NodeID, _ channel.ID) {
				if from == 1 && to == 0 {
					covered[int(at)/stageLen] = true
				}
			}),
		})
		if err != nil {
			return 0, err
		}
		return float64(len(covered)) / float64(stages), nil
	}, nil
}

// e5AsyncJob prepares a run measuring the fraction of the hub's frames
// during which the link (1 → hub 0) is covered. With ideal same-phase
// clocks each hub frame forms exactly one aligned pair with each neighbor
// frame, so the per-frame frequency is the per-aligned-pair coverage
// probability the Lemma 5 bound addresses. (Drifting clocks change which
// pair is aligned but not the per-frame counting; the ideal-clock variant
// keeps the estimator exact.)
func e5AsyncJob(nw *topology.Network, deltaEst, frames int, root *rng.Source) (func(*harness.Scratch) (float64, error), error) {
	nodes := make([]sim.AsyncNode, nw.N())
	for u := 0; u < nw.N(); u++ {
		p, err := core.NewAsync(nw.Avail(topology.NodeID(u)), deltaEst, root.Split())
		if err != nil {
			return nil, err
		}
		nodes[u] = sim.AsyncNode{Protocol: p, Drift: clock.Ideal}
	}
	return func(sc *harness.Scratch) (float64, error) {
		covered := make(map[int]bool, frames)
		_, err := sim.RunAsync(sim.AsyncConfig{
			Network:   nw,
			Nodes:     nodes,
			FrameLen:  e4FrameLen,
			MaxFrames: frames,
			Scratch:   sc.Async(),
			Observer: sim.DeliverObserver(func(at float64, from, to topology.NodeID, _ channel.ID) {
				if from == 1 && to == 0 {
					covered[int(at/e4FrameLen)] = true
				}
			}),
		})
		if err != nil {
			return 0, err
		}
		return float64(len(covered)) / float64(frames), nil
	}, nil
}
