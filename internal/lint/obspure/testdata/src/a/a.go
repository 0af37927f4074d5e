// Package a exercises the obspure analyzer: mutation, retention and
// engine re-entry inside observer and Deliver callbacks, plus the clean
// boundary-copy shapes and suppressions.
package a

import (
	"m2hew/internal/radio"
	"m2hew/internal/sim"
)

// badObserver demonstrates every impure shape.
type badObserver struct {
	last    []radio.Action
	history [][]radio.Action
	ch      chan []radio.Action
}

func (o *badObserver) OnEvent(e sim.Event) {
	e.Actions[0] = radio.Action{}                  // want "write through borrowed slice Actions mutates engine state"
	e.Actions[0].Channel = 9                       // want "write through borrowed slice Actions mutates engine state"
	e.Actions[0].Channel++                         // want "write through borrowed slice Actions mutates engine state"
	e.Actions[1].Mode += 1                         // want "write through borrowed slice Actions mutates engine state"
	_ = append(e.Actions, radio.Action{})          // want "append with borrowed slice Actions as destination"
	o.last = e.Actions                             // want "storing borrowed slice Actions outlives the callback"
	o.history = append(o.history, e.Actions)       // want "appending borrowed slice Actions retains it past the callback"
	o.ch <- e.Actions                              // want "sending borrowed slice Actions on a channel retains it"
	snap := struct{ as []radio.Action }{e.Actions} // want "borrowed slice Actions placed in a composite literal"
	_ = snap
}

// leakReturn returns the borrowed slice from an ObserverFunc-style literal
// capture helper.
type leakObserver struct{ out func() []radio.Action }

func (o *leakObserver) OnEvent(e sim.Event) {
	o.out = nil
	_ = func(e sim.Event) []radio.Action {
		return e.Actions // want "returning borrowed slice Actions leaks it past the callback"
	}
}

// captures writes into a variable declared outside the callback literal.
func captures() sim.Observer {
	var kept []radio.Action
	obs := observerFunc(func(e sim.Event) {
		kept = e.Actions // want "storing borrowed slice Actions outlives the callback"
	})
	_ = kept
	return obs
}

// observerFunc adapts a func to sim.Observer, like the real sim package.
type observerFunc func(sim.Event)

func (f observerFunc) OnEvent(e sim.Event) { f(e) }

// reenter calls the engines from inside a callback.
type reenterObserver struct{}

func (reenterObserver) OnEvent(e sim.Event) {
	_, _ = sim.RunSync(sim.SyncConfig{})        // want "RunSync re-enters the engine from inside a callback"
	_, _ = sim.RunAsync(sim.SyncConfig{})       // want "RunAsync re-enters the engine from inside a callback"
	_, _ = sim.RunAsyncOnline(sim.SyncConfig{}) // want "RunAsyncOnline re-enters the engine from inside a callback"
}

// badProtocol retains msg.Heard from Deliver.
type badProtocol struct{ heard []int }

func (p *badProtocol) Deliver(msg radio.Message) {
	p.heard = msg.Heard // want "storing borrowed slice Heard outlives the callback"
}

// goodObserver uses only the allowed shapes: reading, ranging, len/cap,
// spread-copies, boundary copies, and passing the slice onward.
type goodObserver struct {
	seen []radio.Action
	n    int
}

func (o *goodObserver) OnEvent(e sim.Event) {
	o.n += len(e.Actions)
	for _, a := range e.Actions {
		if a.Mode == 1 {
			o.n++
		}
	}
	if cap(e.Actions) > 0 {
		_ = e.Actions[0]         // reading an element is fine
		o.n += e.Actions[0].Mode // reading an element's field is fine
	}
	o.seen = append(o.seen[:0], e.Actions...) // spread copy: fine
	dst := make([]radio.Action, len(e.Actions))
	copy(dst, e.Actions) // copy-from: fine
	consume(e.Actions)   // passing onward: the callee inherits the contract
}

func consume(as []radio.Action) { _ = len(as) }

// suppressedObserver documents a verified-safe retention.
type suppressedObserver struct{ last []radio.Action }

func (o *suppressedObserver) OnEvent(e sim.Event) {
	//ndlint:ignore obspure single-threaded replay consumes last before the next slot
	o.last = e.Actions
}

// goodProtocol copies Heard before keeping it: the engine lends its
// snapshot buffer for the Deliver call only.
type goodProtocol struct{ heard []int }

func (p *goodProtocol) Deliver(msg radio.Message) {
	p.heard = append(p.heard[:0], msg.Heard...)
}

// notACallback has the wrong name: obspure leaves it alone.
type notACallback struct{ last []radio.Action }

func (o *notACallback) Snapshot(e sim.Event) {
	o.last = e.Actions // not OnEvent/Deliver: out of scope
}
