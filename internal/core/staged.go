package core

import (
	"m2hew/internal/channel"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
)

// SyncStaged is Algorithm 1: neighbor discovery for a synchronous system
// with identical start times and a known upper bound Δ_est on the maximum
// node degree.
//
// Execution is an endless sequence of stages, each of StageLen(Δ_est) slots.
// In slot i (1-based) of a stage, the node tunes to a uniformly random
// channel of A(u) and transmits with probability min(1/2, |A(u)|/2^i),
// listening otherwise. The exponentially decreasing schedule guarantees each
// stage contains a slot whose transmit probability is within a factor two of
// the contention-optimal 1/Δ(u,c) for every channel degree Δ(u,c) ≤ Δ_est.
type SyncStaged struct {
	node
	deltaEst int
	stageLen int
}

// NewSyncStaged returns an Algorithm 1 instance for a node with the given
// available channel set, degree estimate, and random stream.
func NewSyncStaged(avail channel.Set, deltaEst int, r *rng.Source) (*SyncStaged, error) {
	if err := validateDeltaEst(deltaEst); err != nil {
		return nil, err
	}
	n, err := newNode(avail, r)
	if err != nil {
		return nil, err
	}
	return &SyncStaged{node: n, deltaEst: deltaEst, stageLen: StageLen(deltaEst)}, nil
}

// Step returns the node's action for its localSlot-th slot (0-based since
// the node started).
func (p *SyncStaged) Step(localSlot int) radio.Action {
	i := localSlot%p.stageLen + 1 // 1-based slot within the stage
	return p.chooseAction(TransmitProbStaged(p.avail.Size(), i))
}

// Deliver records a clear message per Algorithm 1 lines 9–11.
func (p *SyncStaged) Deliver(msg radio.Message) { p.deliver(msg) }

// Neighbors returns the node's discovery output.
func (p *SyncStaged) Neighbors() *NeighborTable { return &p.table }

// StageLen returns the number of slots per stage, ⌈log₂ Δ_est⌉ (min 1).
func (p *SyncStaged) StageLen() int { return p.stageLen }

// DeltaEst returns the degree estimate the instance was built with.
func (p *SyncStaged) DeltaEst() int { return p.deltaEst }
