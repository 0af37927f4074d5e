package core

import (
	"m2hew/internal/channel"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
)

// SyncGrowing is Algorithm 2: neighbor discovery for a synchronous system
// with identical start times and no knowledge of the maximum node degree.
//
// It repeatedly executes one Algorithm-1 stage with sequentially increasing
// degree estimates d = 2, 3, 4, …. Once d reaches the true maximum channel
// degree Δ, every subsequent stage contains a slot whose transmit
// probability is near-optimal, so discovery completes within Δ + M stages
// with probability 1 − ε (Theorem 2; the geometric-doubling alternative of
// [2] is unusable here because computing per-estimate run lengths would
// require a-priori knowledge of N, S and ρ).
type SyncGrowing struct {
	node
	d         int // current degree estimate
	slotInD   int // 0-based slot within the current stage
	stageLenD int // slots in the current stage = StageLen(d)
}

// NewSyncGrowing returns an Algorithm 2 instance.
func NewSyncGrowing(avail channel.Set, r *rng.Source) (*SyncGrowing, error) {
	n, err := newNode(avail, r)
	if err != nil {
		return nil, err
	}
	return &SyncGrowing{node: n, d: 2, stageLenD: StageLen(2)}, nil
}

// Step returns the node's action for its next slot. Unlike the other
// synchronous protocols, Algorithm 2's schedule is stateful (stage lengths
// grow), so Step must be called with consecutive localSlot values starting
// at 0; the argument is accepted for interface uniformity and cross-checked
// in debug builds by the engine's sequential drive.
func (p *SyncGrowing) Step(localSlot int) radio.Action {
	_ = localSlot
	i := p.slotInD + 1 // 1-based slot within the stage
	action := p.chooseAction(TransmitProbStaged(p.avail.Size(), i))
	p.slotInD++
	if p.slotInD >= p.stageLenD {
		p.d++
		p.slotInD = 0
		p.stageLenD = StageLen(p.d)
	}
	return action
}

// Deliver records a clear message.
func (p *SyncGrowing) Deliver(msg radio.Message) { p.deliver(msg) }

// Neighbors returns the node's discovery output.
func (p *SyncGrowing) Neighbors() *NeighborTable { return &p.table }

// Estimate returns the current degree estimate d.
func (p *SyncGrowing) Estimate() int { return p.d }

// SlotsForEstimate returns the total number of slots Algorithm 2 consumes to
// finish all stages with estimates 2..d inclusive. It is the schedule's
// clock: after SlotsForEstimate(d) slots the protocol starts the stage with
// estimate d+1.
func SlotsForEstimate(d int) int {
	total := 0
	for e := 2; e <= d; e++ {
		total += StageLen(e)
	}
	return total
}
