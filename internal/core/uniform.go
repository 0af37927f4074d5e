package core

import (
	"m2hew/internal/channel"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
)

// SyncUniform is Algorithm 3: neighbor discovery for a synchronous system
// with variable start times and a known upper bound Δ_est on the maximum
// node degree.
//
// Every slot is identical: the node tunes to a uniformly random channel of
// A(u) and transmits with probability min(1/2, |A(u)|/Δ_est). Because the
// transmit probability never changes, the probability that a given link is
// covered in a slot is the same in every slot, which is what makes the
// algorithm insensitive to nodes joining at different times (the staged
// schedule of Algorithm 1 would lose its alignment). The price is a linear —
// rather than logarithmic — dependence on Δ_est, so the paper assumes the
// bound is "good" here.
type SyncUniform struct {
	node
	deltaEst int
	p        float64
}

// NewSyncUniform returns an Algorithm 3 instance.
func NewSyncUniform(avail channel.Set, deltaEst int, r *rng.Source) (*SyncUniform, error) {
	if err := validateDeltaEst(deltaEst); err != nil {
		return nil, err
	}
	n, err := newNode(avail, r)
	if err != nil {
		return nil, err
	}
	return &SyncUniform{
		node:     n,
		deltaEst: deltaEst,
		p:        TransmitProbUniform(avail.Size(), deltaEst),
	}, nil
}

// Step returns the node's action for any slot; the schedule is memoryless.
func (p *SyncUniform) Step(int) radio.Action {
	return p.chooseAction(p.p)
}

// Deliver records a clear message.
func (p *SyncUniform) Deliver(msg radio.Message) { p.deliver(msg) }

// Neighbors returns the node's discovery output.
func (p *SyncUniform) Neighbors() *NeighborTable { return &p.table }

// TransmitProb returns the constant per-slot transmit probability.
func (p *SyncUniform) TransmitProb() float64 { return p.p }
