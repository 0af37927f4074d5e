package core

import (
	"fmt"

	"m2hew/internal/radio"
)

// The paper's algorithms run forever — Theorems 1–3 and 9 bound when
// discovery has *succeeded* with probability 1−ε, but a node cannot locally
// observe success (it doesn't know N, its true neighbor count, or ρ). The
// companion line of work the paper cites ([22], "lightweight termination
// detection") addresses stopping; this file provides the library's practical
// variant: a quiescence rule. A wrapped node shuts its radio off after
// idleLimit consecutive slots (or frames) during which its neighbor table
// did not grow.
//
// The rule trades recall for energy: too small a limit can stop a node
// before slow links are covered (and, worse, before *other* nodes have heard
// it). Experiment E14 quantifies the tradeoff; the analytic anchor is that
// a link's per-slot coverage probability is at least the Eq. (6) bound, so
// idleLimit ≫ 1/bound makes premature termination unlikely.

// SyncDiscoverer is the interface shared by this package's synchronous
// protocols (SyncStaged, SyncGrowing, SyncUniform and the baselines).
type SyncDiscoverer interface {
	Step(localSlot int) radio.Action
	Deliver(msg radio.Message)
	Neighbors() *NeighborTable
}

// AsyncDiscoverer is the frame-oriented counterpart (Async).
type AsyncDiscoverer interface {
	NextFrame(frame int) radio.Action
	Deliver(msg radio.Message)
	Neighbors() *NeighborTable
}

// SyncTerminating wraps a synchronous protocol with the quiescence rule.
type SyncTerminating struct {
	inner     SyncDiscoverer
	idleLimit int
	idleFor   int
	active    int
	done      bool
}

// NewSyncTerminating wraps inner so it goes permanently quiet after
// idleLimit consecutive slots without a new neighbor.
func NewSyncTerminating(inner SyncDiscoverer, idleLimit int) (*SyncTerminating, error) {
	if inner == nil {
		return nil, fmt.Errorf("core: terminating wrapper needs a protocol")
	}
	if idleLimit < 1 {
		return nil, fmt.Errorf("core: idle limit %d must be positive", idleLimit)
	}
	return &SyncTerminating{inner: inner, idleLimit: idleLimit}, nil
}

// Step implements the engine protocol; after termination it is quiet.
func (p *SyncTerminating) Step(localSlot int) radio.Action {
	if p.done {
		return radio.Action{Mode: radio.Quiet}
	}
	if p.idleFor >= p.idleLimit {
		p.done = true
		return radio.Action{Mode: radio.Quiet}
	}
	p.idleFor++
	p.active++
	return p.inner.Step(localSlot)
}

// Deliver forwards the message; a table-growing delivery resets the idle
// counter.
func (p *SyncTerminating) Deliver(msg radio.Message) {
	before := p.inner.Neighbors().Len()
	p.inner.Deliver(msg)
	if p.inner.Neighbors().Len() > before {
		p.idleFor = 0
	}
}

// Neighbors returns the inner protocol's discovery output.
func (p *SyncTerminating) Neighbors() *NeighborTable { return p.inner.Neighbors() }

// ReserveNeighbors forwards the engine's size hint to the wrapped table.
func (p *SyncTerminating) ReserveNeighbors(expected int) { p.inner.Neighbors().Reserve(expected) }

// Terminated reports whether the node has gone permanently quiet.
func (p *SyncTerminating) Terminated() bool { return p.done }

// ActiveSlots returns how many slots the node's radio was on.
func (p *SyncTerminating) ActiveSlots() int { return p.active }

// AsyncTerminating wraps an asynchronous protocol with the quiescence rule,
// counted in frames. It is adaptive — its schedule depends on what it has
// received — so it relies on the engine delivering every message before the
// node's next frame decision, as sim.RunAsync does, and its behaviour plays
// out after coverage completes, so its runs set
// sim.AsyncConfig.RunToMaxFrames.
type AsyncTerminating struct {
	inner     AsyncDiscoverer
	idleLimit int
	idleFor   int
	active    int
	done      bool
}

// NewAsyncTerminating wraps inner so it goes permanently quiet after
// idleLimit consecutive frames without a new neighbor.
func NewAsyncTerminating(inner AsyncDiscoverer, idleLimit int) (*AsyncTerminating, error) {
	if inner == nil {
		return nil, fmt.Errorf("core: terminating wrapper needs a protocol")
	}
	if idleLimit < 1 {
		return nil, fmt.Errorf("core: idle limit %d must be positive", idleLimit)
	}
	return &AsyncTerminating{inner: inner, idleLimit: idleLimit}, nil
}

// NextFrame implements the engine protocol; after termination it is quiet.
func (p *AsyncTerminating) NextFrame(frame int) radio.Action {
	if p.done {
		return radio.Action{Mode: radio.Quiet}
	}
	if p.idleFor >= p.idleLimit {
		p.done = true
		return radio.Action{Mode: radio.Quiet}
	}
	p.idleFor++
	p.active++
	return p.inner.NextFrame(frame)
}

// Deliver forwards the message; a table-growing delivery resets the idle
// counter.
func (p *AsyncTerminating) Deliver(msg radio.Message) {
	before := p.inner.Neighbors().Len()
	p.inner.Deliver(msg)
	if p.inner.Neighbors().Len() > before {
		p.idleFor = 0
	}
}

// Neighbors returns the inner protocol's discovery output.
func (p *AsyncTerminating) Neighbors() *NeighborTable { return p.inner.Neighbors() }

// ReserveNeighbors forwards the engine's size hint to the wrapped table.
func (p *AsyncTerminating) ReserveNeighbors(expected int) { p.inner.Neighbors().Reserve(expected) }

// Terminated reports whether the node has gone permanently quiet.
func (p *AsyncTerminating) Terminated() bool { return p.done }

// ActiveFrames returns how many frames the node's radio was on.
func (p *AsyncTerminating) ActiveFrames() int { return p.active }
