package harness

import (
	"time"

	"m2hew/internal/sim"
)

// Instruments combines instruments into one, skipping nils — the
// Instrument seam's analog of sim.MultiObserver. It returns nil when every
// argument is nil (keeping SetInstrument(nil) semantics) and a lone
// instrument unchanged. The combination is faithful on every axis:
//
//   - TrialObserver composes the members' per-trial observers with
//     sim.MultiObserver, and the wrapper re-exports the combined
//     subscription mask and internals sink, so a member that subscribes to
//     nothing still costs the engine nothing it didn't already pay.
//   - TrialDone routes each member's own observer back to it, so a member
//     never sees another's observer type.
//   - ObserveBatch / ObserveStart / ObserveRun fan out in argument order.
func Instruments(ins ...Instrument) Instrument {
	var active multiInstrument
	for _, i := range ins {
		if i != nil {
			active = append(active, i)
		}
	}
	switch len(active) {
	case 0:
		return nil
	case 1:
		return active[0]
	default:
		return active
	}
}

// multiInstrument fans the Instrument seam out to several members.
type multiInstrument []Instrument

// composedObs pairs the combined per-trial observer handed to the engine
// with the per-member observers TrialDone routes back. It re-exports the
// combined observer's subscription mask and internals sink: embedding
// alone would erase them (the wrapper's method set would shrink to
// OnEvent), silently flipping engines off their event-free fast paths
// (the tiled path, the kernel's idle and collision event skips).
type composedObs struct {
	combined sim.Observer
	parts    []sim.Observer
}

// OnEvent implements sim.Observer.
func (c *composedObs) OnEvent(e sim.Event) { c.combined.OnEvent(e) }

// EventMask implements sim.EventMasker, preserving the combined
// subscription (AllEvents when the combined observer declares none).
func (c *composedObs) EventMask() sim.EventMask {
	if m, ok := c.combined.(sim.EventMasker); ok {
		return m.EventMask()
	}
	return sim.AllEvents
}

// OnInternals implements sim.InternalsSink, forwarding to the combined
// observer's sink when it has one.
func (c *composedObs) OnInternals(in sim.Internals) {
	if s, ok := c.combined.(sim.InternalsSink); ok {
		s.OnInternals(in)
	}
}

// TrialObserver implements Instrument.
func (m multiInstrument) TrialObserver(nodes, channels int) sim.Observer {
	parts := make([]sim.Observer, len(m))
	for i, ins := range m {
		parts[i] = ins.TrialObserver(nodes, channels)
	}
	combined := sim.MultiObserver(parts...)
	if combined == nil {
		// Every member declined: keep the engine's no-observer fast path.
		// TrialDone(nil) still fans out below, so members that tally in
		// TrialDone regardless of observers keep working.
		return nil
	}
	return &composedObs{combined: combined, parts: parts}
}

// TrialDone implements Instrument, routing each member's own observer back
// to it. Observers not built by this combinator (including nil) fan out
// verbatim — members ignore foreign observer types by contract.
func (m multiInstrument) TrialDone(obs sim.Observer) {
	if c, ok := obs.(*composedObs); ok {
		for i, ins := range m {
			ins.TrialDone(c.parts[i])
		}
		return
	}
	for _, ins := range m {
		ins.TrialDone(obs)
	}
}

// ObserveRun implements Instrument.
func (m multiInstrument) ObserveRun(index int, queueDelay, wall time.Duration) {
	for _, ins := range m {
		ins.ObserveRun(index, queueDelay, wall)
	}
}

// ObserveBatch implements BatchObserver for members that do.
func (m multiInstrument) ObserveBatch(n int) {
	for _, ins := range m {
		if b, ok := ins.(BatchObserver); ok {
			b.ObserveBatch(n)
		}
	}
}

// ObserveStart implements StartObserver for members that do.
func (m multiInstrument) ObserveStart(index int) {
	for _, ins := range m {
		if s, ok := ins.(StartObserver); ok {
			s.ObserveStart(index)
		}
	}
}
