package harness

import (
	"m2hew/internal/sim"
)

// AsyncConfigs executes pre-built asynchronous configurations on the
// worker pool and returns their results in input order. Callers construct
// the configs — and therefore consume their random streams — sequentially
// before calling, so results are identical to a sequential run; only the
// engine execution, which draws no shared randomness, is parallel. Configs
// with loss models must not share rng sources.
func AsyncConfigs(cfgs []sim.AsyncConfig) ([]*sim.AsyncResult, error) {
	return AsyncTrials(len(cfgs), func(i int) (sim.AsyncConfig, error) { return cfgs[i], nil })
}

// AsyncTrials runs a two-phase asynchronous pipeline: build(trial) is
// called sequentially in trial order (the place to draw offsets, drifts
// and protocol randomness from a shared root source) and the resulting
// configs execute on the worker pool. Results are in trial order.
//
// A config without its own Scratch runs on the worker's scratch, so a
// worker's trials share their clock timelines, drift memos and frame
// tables. Each run consumes its config's nodes (see sim.AsyncConfig).
// The process-wide instrument's observer, when installed, is composed with
// any caller-supplied one.
func AsyncTrials(trials int, build func(trial int) (sim.AsyncConfig, error)) ([]*sim.AsyncResult, error) {
	return TrialsScratch(trials, build,
		func(_ int, cfg sim.AsyncConfig, sc *Scratch) (*sim.AsyncResult, error) {
			if cfg.Scratch == nil {
				cfg.Scratch = sc.Async()
			}
			ins := CurrentInstrument()
			var obs sim.Observer
			if ins != nil && cfg.Network != nil {
				obs = ins.TrialObserver(cfg.Network.N(), channelSpace(cfg.Network))
				cfg.Observer = sim.MultiObserver(cfg.Observer, obs)
			}
			res, err := sim.RunAsync(cfg)
			if err != nil {
				return nil, err
			}
			if ins != nil {
				ins.TrialDone(obs)
			}
			return res, nil
		})
}
