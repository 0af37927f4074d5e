package core

import (
	"fmt"
	"m2hew/internal/channel"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
)

// AsyncSlotsPerFrame is the number of slots a node divides each frame into
// (Algorithm 4, Fig. 1). The value 3 is load-bearing: Lemma 4 (a frame
// overlaps at most 3 frames of another node) and Lemma 7 (an aligned pair
// exists among any two consecutive frames) both rest on the 3-way division
// combined with the drift bound δ ≤ 1/7. The slot-ablation experiment (E10)
// simulates other divisions via sim.AsyncConfig.SlotsPerFrame.
const AsyncSlotsPerFrame = 3

// Async is Algorithm 4: neighbor discovery for an asynchronous system with
// bounded clock drift and a known upper bound Δ_est on the maximum node
// degree.
//
// Each node divides its local time into frames of equal local length L,
// each split into three slots. At every frame boundary the node picks a
// uniformly random channel c from A(u); with probability
// min(1/2, |A(u)|/(3·Δ_est)) it transmits its message during each of the
// three slots of the frame, otherwise it listens on c for the entire frame.
// Repeating the message in each slot is what lets a misaligned listener
// catch at least one complete copy: by Lemma 7, among any two consecutive
// frames of transmitter and listener some slot of one lies wholly inside a
// frame of the other.
//
// The protocol is clock-agnostic: the engine owns the node's (drifting)
// clock and asks for one decision per local frame. Nothing here depends on
// real time, which is exactly the paper's requirement that nodes have no
// access to synchronized time.
type Async struct {
	node
	deltaEst      int
	slotsPerFrame int
	p             float64
}

// NewAsync returns an Algorithm 4 instance.
func NewAsync(avail channel.Set, deltaEst int, r *rng.Source) (*Async, error) {
	return NewAsyncSlots(avail, deltaEst, AsyncSlotsPerFrame, r)
}

// NewAsyncSlots returns an Algorithm 4 variant whose frames are divided into
// slotsPerFrame slots, transmitting per frame with probability
// min(1/2, |A(u)|/(slotsPerFrame·Δ_est)). The paper's algorithm is the
// slotsPerFrame = 3 case; other values exist solely for the slot-count
// ablation experiment (E10), which probes why the paper picked 3. The engine
// must be configured with the same sim.AsyncConfig.SlotsPerFrame.
func NewAsyncSlots(avail channel.Set, deltaEst, slotsPerFrame int, r *rng.Source) (*Async, error) {
	if err := validateDeltaEst(deltaEst); err != nil {
		return nil, err
	}
	if slotsPerFrame < 1 {
		return nil, fmt.Errorf("core: %d slots per frame must be positive", slotsPerFrame)
	}
	n, err := newNode(avail, r)
	if err != nil {
		return nil, err
	}
	return &Async{
		node:          n,
		deltaEst:      deltaEst,
		slotsPerFrame: slotsPerFrame,
		p:             TransmitProbAsyncSlots(avail.Size(), deltaEst, slotsPerFrame),
	}, nil
}

// NextFrame returns the node's decision for a frame: the channel to tune to
// and whether to transmit (during each slot) or listen (for the whole
// frame). The frame index is unused — the schedule is memoryless — and
// accepted for interface uniformity.
func (p *Async) NextFrame(int) radio.Action {
	return p.chooseAction(p.p)
}

// Deliver records a clear message received during a listening frame.
func (p *Async) Deliver(msg radio.Message) { p.deliver(msg) }

// Neighbors returns the node's discovery output.
func (p *Async) Neighbors() *NeighborTable { return &p.table }

// TransmitProb returns the constant per-frame transmit probability.
func (p *Async) TransmitProb() float64 { return p.p }

// SlotsPerFrame returns the frame division this instance was built for.
func (p *Async) SlotsPerFrame() int { return p.slotsPerFrame }
