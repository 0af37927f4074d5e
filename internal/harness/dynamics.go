package harness

import (
	"m2hew/internal/dynamics"
	"m2hew/internal/metrics"
	"m2hew/internal/rng"
	"m2hew/internal/sim"
	"m2hew/internal/topology"
)

// SyncDynamicsTrials runs independent trials of a synchronous scenario on a
// time-varying world and returns the engine results in trial order. Each
// trial draws, sequentially from root in trial order, first the per-node
// protocol sources (exactly as SyncTrials does) and then the world schedule
// from one further split — so a dynamic trial's protocol streams match the
// static trial's at the same position, and the whole run is a pure function
// of (nw, spec, epochs, maxSlots, trials, seed).
//
// epochs is the world horizon in epochs; spec.EpochLen must be a positive
// whole number of slots (the synchronous engine advances epochs on slot
// boundaries).
func SyncDynamicsTrials(nw *topology.Network, factory SyncFactory, spec dynamics.Spec, epochs, maxSlots, trials int, root *rng.Source) ([]*sim.SyncResult, error) {
	return syncTrials(nw, factory, nil, maxSlots, trials, root, func(r *rng.Source) (*dynamics.World, error) {
		return dynamics.NewWorld(nw, spec, epochs, r)
	})
}

// PooledLatencies reduces dynamic-run coverage records to the suite's
// standard latency statistic: every covered link's discovery latency
// (coverage time minus the link's birth time) pooled across trials in trial
// order, plus the pooled covered and targeted link counts. The covered /
// targeted ratio is the headline coverage fraction of a dynamic experiment
// row; Complete is rarely meaningful under churn, latency is.
func PooledLatencies(covs []*metrics.Coverage) (lat []float64, covered, targeted int) {
	for _, cov := range covs {
		lat = append(lat, cov.Latencies()...)
		covered += cov.TargetSize() - cov.Remaining()
		targeted += cov.TargetSize()
	}
	return lat, covered, targeted
}
