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
	results := make([]*sim.AsyncResult, len(cfgs))
	err := RunScratch(len(cfgs), func(i int, sc *Scratch) error {
		res, err := runAsyncInstrumented(cfgs[i], sc)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runAsyncInstrumented executes one asynchronous config on the worker's
// scratch, attaching the process-wide instrument's observer (composed with
// any caller-supplied one) when installed. A caller-supplied Scratch in the
// config wins — it carries the caller's reuse contract (e.g. timeline
// recycling decisions).
func runAsyncInstrumented(cfg sim.AsyncConfig, sc *Scratch) (*sim.AsyncResult, error) {
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
}

// AsyncTrials runs a two-phase asynchronous pipeline: build(trial) is
// called sequentially in trial order (the place to draw offsets, drifts
// and protocol randomness from a shared root source) and the resulting
// configs execute on the worker pool. Results are in trial order.
//
// A config without its own Scratch runs on the worker's batch-private
// scratch with timeline recycling on, so the workers' trials share their
// clock timelines and drift memos; such a result's Timelines is nil (its
// timelines belong to the worker's next trial). Callers that audit
// timelines use AsyncConfigs or supply a Scratch.
func AsyncTrials(trials int, build func(trial int) (sim.AsyncConfig, error)) ([]*sim.AsyncResult, error) {
	return TrialsScratch(trials, build,
		func(_ int, cfg sim.AsyncConfig, sc *Scratch) (*sim.AsyncResult, error) {
			recycled := cfg.Scratch == nil
			if recycled {
				cfg.Scratch = sc.Async()
				cfg.Scratch.RecycleTimelines = true
			}
			res, err := runAsyncInstrumented(cfg, sc)
			if err != nil {
				return nil, err
			}
			if recycled {
				res.Timelines = nil
			}
			return res, nil
		})
}
