// Package radio defines the vocabulary shared by the simulation engines and
// the discovery protocols: transceiver modes, per-slot and per-frame
// actions, and the discovery message.
//
// The model follows the paper's Section II exactly. A transceiver operates
// on a single channel at a time, cannot transmit and receive simultaneously
// (half duplex), and in each time unit is in one of three modes: transmit on
// a channel, receive on a channel, or quiet (shut off). Nodes cannot detect
// collisions: a listener that hears two overlapping transmissions from its
// neighbors observes only noise, indistinguishable from background noise.
package radio

import (
	"fmt"

	"m2hew/internal/channel"
	"m2hew/internal/topology"
)

// Mode is the transceiver mode for one slot (synchronous) or one frame
// (asynchronous).
type Mode int

// Transceiver modes. Quiet is deliberately the zero-adjacent first value so
// an unset Action is invalid rather than silently quiet.
const (
	// Transmit sends on the action's channel.
	Transmit Mode = iota + 1
	// Receive listens on the action's channel.
	Receive
	// Quiet turns the transceiver off. The paper's algorithms never choose
	// it, but the engines use it for nodes that have not started yet.
	Quiet
)

// String renders the mode for traces.
func (m Mode) String() string {
	switch m {
	case Transmit:
		return "tx"
	case Receive:
		return "rx"
	case Quiet:
		return "quiet"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Valid reports whether m is a defined mode.
func (m Mode) Valid() bool {
	return m == Transmit || m == Receive || m == Quiet
}

// Action is one slot or frame decision of a protocol: which channel to tune
// to and whether to transmit or listen on it. For Quiet the channel is
// ignored.
type Action struct {
	Mode    Mode
	Channel channel.ID
}

// Validate reports an invalid action. It checks the mode is defined and, for
// non-quiet modes, that the channel belongs to avail — a protocol choosing a
// channel outside its available set is a bug the engines refuse to simulate.
func (a Action) Validate(avail channel.Set) error {
	if !a.Mode.Valid() {
		return fmt.Errorf("radio: invalid mode %d", int(a.Mode))
	}
	if a.Mode == Quiet {
		return nil
	}
	if !avail.Contains(a.Channel) {
		return fmt.Errorf("radio: action %v on channel %d outside available set %v", a.Mode, a.Channel, avail)
	}
	return nil
}

// String renders the action for traces.
func (a Action) String() string {
	if a.Mode == Quiet {
		return "quiet"
	}
	return fmt.Sprintf("%s@%d", a.Mode, a.Channel)
}

// Message is the discovery message of the paper's algorithms: the sender's
// identity and its available channel set A(v). The engine constructs it at
// delivery time; the receiving protocol stores ⟨v, A(v) ∩ A(u)⟩.
type Message struct {
	From topology.NodeID
	// Avail is A(v), the sender's available channel set. It is a read-only
	// view shared by every message from the same sender within a run;
	// receivers must not modify it (Clone first to mutate). Deriving new
	// sets from it (Intersect, Union, …) is safe.
	Avail channel.Set
	// Heard optionally piggybacks the sender's currently discovered
	// in-neighbors — the acknowledgment extension for asymmetric graphs: a
	// receiver finding its own ID here learns that its transmissions reach
	// the sender. Nil when the sending protocol does not report a heard
	// list (the paper's plain algorithms). Engines snapshot the sender's
	// list at delivery time into a buffer they reuse for the next
	// delivery: the slice is borrowed for the Deliver call only, and a
	// receiver that keeps it past the call must copy it.
	Heard []topology.NodeID
}
