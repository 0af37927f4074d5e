package harness

import (
	"m2hew/internal/dynamics"
	"m2hew/internal/rng"
	"m2hew/internal/sim"
	"m2hew/internal/topology"
)

// SyncFactory builds one node's protocol for a synchronous trial from the
// node's private random source.
type SyncFactory func(u topology.NodeID, r *rng.Source) (sim.SyncProtocol, error)

// SyncTrials runs independent trials of a synchronous scenario and returns
// the engine results in trial order. Each trial's per-node sources are
// split from root sequentially in trial order (the split-then-fork
// contract), so the outcome is byte-identical to a sequential run; the
// Network must be read-only during simulation, which all topology
// generators guarantee after construction.
func SyncTrials(nw *topology.Network, factory SyncFactory, starts []int, maxSlots, trials int, root *rng.Source) ([]*sim.SyncResult, error) {
	return syncTrials(nw, factory, starts, maxSlots, trials, root, nil)
}

// syncTrialJob carries one prepared trial from the sequential setup phase
// to the worker pool: the per-node protocols plus, for a dynamic trial,
// its private world (a World memoizes epoch snapshots, so it must not be
// shared across concurrent trials).
type syncTrialJob struct {
	protos []sim.SyncProtocol
	world  *dynamics.World
}

// syncTrials is the trial body of SyncTrials and SyncDynamicsTrials. Each
// trial draws, sequentially from root in trial order, its per-node
// protocol sources and then, when newWorld is non-nil, its world from one
// further split.
func syncTrials(nw *topology.Network, factory SyncFactory, starts []int, maxSlots, trials int, root *rng.Source, newWorld func(*rng.Source) (*dynamics.World, error)) ([]*sim.SyncResult, error) {
	return TrialsScratch(trials,
		func(int) (syncTrialJob, error) {
			sources := root.SplitN(nw.N())
			job := syncTrialJob{protos: make([]sim.SyncProtocol, nw.N())}
			for u := 0; u < nw.N(); u++ {
				p, err := factory(topology.NodeID(u), sources[u])
				if err != nil {
					return syncTrialJob{}, err
				}
				job.protos[u] = p
			}
			if newWorld != nil {
				var err error
				if job.world, err = newWorld(root.Split()); err != nil {
					return syncTrialJob{}, err
				}
			}
			return job, nil
		},
		func(_ int, job syncTrialJob, sc *Scratch) (*sim.SyncResult, error) {
			cfg := sim.SyncConfig{
				Network:    nw,
				Protocols:  job.protos,
				StartSlots: starts,
				MaxSlots:   maxSlots,
				Dynamics:   job.world,
				Scratch:    sc.Sync(),
			}
			ins := CurrentInstrument()
			var obs sim.Observer
			if ins != nil {
				obs = ins.TrialObserver(nw.N(), channelSpace(nw))
				cfg.Observer = obs
			}
			res, err := sim.RunSync(cfg)
			if err != nil {
				return nil, err
			}
			if ins != nil {
				ins.TrialDone(obs)
			}
			return res, nil
		})
}

// CompletionSlots reduces synchronous results to the suite's standard
// completion statistic: the 1-based completion slot of every completed
// trial (in trial order) plus the count of trials that did not complete
// within the horizon.
func CompletionSlots(results []*sim.SyncResult) (slots []float64, incomplete int) {
	for _, res := range results {
		if !res.Complete {
			incomplete++
			continue
		}
		slots = append(slots, float64(res.CompletionSlot+1))
	}
	return slots, incomplete
}
