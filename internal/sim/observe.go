package sim

import (
	"m2hew/internal/channel"
	"m2hew/internal/metrics"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
	"m2hew/internal/trace"
)

// This file is the engines' observability seam. Both engines report what
// happens through a single typed Event stream consumed by an Observer
// attached to the run configuration; the trace, metrics and experiment
// layers plug in through the adapters below instead of bespoke callback
// fields. The seam is designed around two constraints:
//
//   - Zero cost when unused: with a nil Observer the engines construct no
//     Event values and make no calls; the hot loops only pay one nil check
//     per emission site.
//   - Zero allocation when used: Event is a plain value passed by value;
//     slices inside it are borrowed engine buffers, never copies.

// EventKind classifies an engine event.
type EventKind uint8

// Event kinds emitted by the engines.
const (
	// EventDeliver is a clear reception: exactly one neighbor transmitted
	// on the listener's channel, the link operates on it, and no erasure
	// occurred. Emitted by both engines.
	EventDeliver EventKind = iota + 1
	// EventSlot is one synchronous slot's collected actions, emitted after
	// phase 1 (action collection) and before reception resolution.
	// Synchronous engine only.
	EventSlot
	// EventCollision is a destroyed listening slot: two or more surviving
	// transmissions reached the listener on its channel. To is the
	// listener, From the first surviving transmitter in candidate order —
	// the engine stops scanning at the second survivor (scanning further
	// would consume extra loss-model draws), so the full transmitter set is
	// not reported. Synchronous engine only.
	EventCollision
	// EventIdle is a listening slot that heard nothing: either no node
	// transmitted on the listener's channel at all, or every candidate
	// transmission was filtered by span or erased by the loss model. To is
	// the listener. Synchronous engine only.
	EventIdle
	// EventFrameStart is one node-local frame beginning: Node is the frame
	// owner, Slot its 0-based frame index on that node, Time the frame's
	// real start time, and Action the whole-frame decision (transmit,
	// receive, or quiet). Asynchronous engine only.
	EventFrameStart
	// EventFrameResolve reports a resolved listening frame: Node, Slot and
	// Action identify the frame as in EventFrameStart, Time is the frame's
	// real end time, Collected counts the candidate transmission slots that
	// overlapped it, and Delivered the clear receptions it produced.
	// Emitted for receive frames only. Asynchronous engine only.
	EventFrameResolve
	// EventEpoch is a dynamic-run epoch boundary: Epoch is the new epoch's
	// index, Time the boundary instant (slot index or real time). Emitted
	// before the boundary's join/leave/channel-loss events. Emitted by
	// both engines.
	EventEpoch
	// EventJoin is a node joining the network at an epoch boundary: Node is
	// the joiner, Epoch the epoch it becomes active in.
	EventJoin
	// EventLeave is a node leaving the network (permanently) at an epoch
	// boundary: Node is the leaver, Epoch the first epoch it is inactive in.
	EventLeave
	// EventChannelLoss is a node losing a channel to a primary user at an
	// epoch boundary: Node is the affected node, Channel the vacated
	// channel, Epoch the epoch the occupation starts in. Channels returning
	// to service carry no event.
	EventChannelLoss
)

// String renders the kind.
func (k EventKind) String() string {
	switch k {
	case EventDeliver:
		return "deliver"
	case EventSlot:
		return "slot"
	case EventCollision:
		return "collision"
	case EventIdle:
		return "idle"
	case EventFrameStart:
		return "frame-start"
	case EventFrameResolve:
		return "frame-resolve"
	case EventEpoch:
		return "epoch"
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	case EventChannelLoss:
		return "channel-loss"
	default:
		return "EventKind(?)"
	}
}

// Event is one engine observation. It is passed by value; observers must
// not retain the Actions slice past the call (it is the engine's reused
// per-slot buffer).
type Event struct {
	// Kind selects which fields are meaningful.
	Kind EventKind
	// Time is the event instant: the slot index for the synchronous
	// engine, the real reception time for the asynchronous engine.
	Time float64
	// Slot is the integer slot index (synchronous engine only; 0 for
	// asynchronous events).
	Slot int
	// From and To identify the link: the delivered link (EventDeliver), or
	// first-surviving-transmitter and listener (EventCollision); EventIdle
	// sets only To (the listener).
	From, To topology.NodeID
	// Channel is the reception channel (EventDeliver, EventCollision,
	// EventIdle).
	Channel channel.ID
	// Node is the frame owner (EventFrameStart, EventFrameResolve); for
	// those kinds Slot holds the node-local frame index.
	Node topology.NodeID
	// Action is the whole-frame radio decision (EventFrameStart,
	// EventFrameResolve).
	Action radio.Action
	// Collected counts candidate transmission slots overlapping a resolved
	// listening frame; Delivered counts the clear receptions it produced
	// (EventFrameResolve only).
	Collected, Delivered int
	// Actions holds every node's action this slot, indexed by NodeID
	// (EventSlot only). Borrowed: valid only during the OnEvent call.
	Actions []radio.Action
	// Epoch is the dynamic-run epoch index (EventEpoch, EventJoin,
	// EventLeave, EventChannelLoss; Node is the affected node for the
	// latter three, Channel the vacated channel for EventChannelLoss).
	Epoch int
}

// Observer consumes engine events. Implementations are called from the
// engine's goroutine in simulation order and must not block; they need no
// internal locking unless shared across runs.
type Observer interface {
	OnEvent(Event)
}

// EventMask is a subscription bitset over event kinds: bit 1<<k is set when
// the observer wants EventKind k. The zero mask subscribes to nothing.
type EventMask uint32

// AllEvents subscribes to every event kind — the default for observers
// that do not declare a narrower interest.
const AllEvents EventMask = ^EventMask(0)

// MaskOf builds a subscription mask from event kinds.
func MaskOf(kinds ...EventKind) EventMask {
	var m EventMask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether the mask subscribes to kind k.
func (m EventMask) Has(k EventKind) bool { return m&(1<<k) != 0 }

// EventMasker is optionally implemented by observers to declare which event
// kinds they consume. The engines skip constructing and dispatching events
// outside the declared mask — per-listener idle events on a large network
// dwarf the deliveries, so an observer that only counts deliveries saves
// most of the observation cost by declaring so. Filtering never reorders:
// the events an observer does receive arrive in exactly the relative order
// an unmasked observer would see them in. An observer that does not
// implement EventMasker receives every event (AllEvents).
type EventMasker interface {
	EventMask() EventMask
}

// observerMask resolves an observer's subscription: zero for nil (the
// engines' no-observer fast path), the declared mask for an EventMasker,
// AllEvents otherwise.
func observerMask(obs Observer) EventMask {
	if obs == nil {
		return 0
	}
	if m, ok := obs.(EventMasker); ok {
		return m.EventMask()
	}
	return AllEvents
}

// maskedObserver pairs an observer with its subscription, filtering
// defensively in OnEvent so the wrapper behaves identically under engines
// (or fan-outs) that ignore the mask.
type maskedObserver struct {
	obs  Observer
	mask EventMask
}

// OnEvent implements Observer.
func (m maskedObserver) OnEvent(e Event) {
	if m.mask.Has(e.Kind) {
		m.obs.OnEvent(e)
	}
}

// EventMask implements EventMasker.
func (m maskedObserver) EventMask() EventMask { return m.mask }

// OnlyEvents subscribes obs to exactly the kinds in mask (see EventMasker).
// A nil obs stays nil.
func OnlyEvents(mask EventMask, obs Observer) Observer {
	if obs == nil {
		return nil
	}
	return maskedObserver{obs: obs, mask: mask}
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e Event) { f(e) }

// multiObserver fans one event stream out to several observers in order.
type multiObserver []Observer

// OnEvent implements Observer.
func (m multiObserver) OnEvent(e Event) {
	for _, o := range m {
		o.OnEvent(e)
	}
}

// EventMask implements EventMasker: the union of the members'
// subscriptions, so the fan-out receives an event iff some member wants it.
// OnEvent still forwards to every member — members that declared a
// narrower mask are masked observers themselves and drop the event on
// their own — keeping the fan-out correct under engines that ignore masks.
func (m multiObserver) EventMask() EventMask {
	var mask EventMask
	for _, o := range m {
		mask |= observerMask(o)
	}
	return mask
}

// MultiObserver combines observers into one, skipping nils. It returns nil
// when every argument is nil, preserving the engines' no-observer fast
// path, and returns a lone observer unwrapped.
func MultiObserver(obs ...Observer) Observer {
	var active multiObserver
	for _, o := range obs {
		if o != nil {
			active = append(active, o)
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

// TraceObserver forwards deliver events to a trace sink (trace.Writer,
// trace.Ring, …) as trace.KindDeliver events.
func TraceObserver(sink trace.Sink) Observer {
	if sink == nil {
		return nil
	}
	return OnlyEvents(MaskOf(EventDeliver), ObserverFunc(func(e Event) {
		sink.Record(trace.Event{
			Time: e.Time, Kind: trace.KindDeliver,
			From: e.From, To: e.To, Channel: e.Channel,
		})
	}))
}

// EventTraceObserver forwards the full event stream to a trace sink, one
// trace event per observation — except EventSlot, which fans out to one
// trace.KindTx per transmitting node (quiet and listening nodes are
// implied by the idle/deliver/collision events). This is the NDJSON
// event-log producer behind `ndsim -events`; TraceObserver remains the
// deliveries-only view for human-oriented verbose output.
func EventTraceObserver(sink trace.Sink) Observer {
	if sink == nil {
		return nil
	}
	return ObserverFunc(func(e Event) {
		switch e.Kind {
		case EventDeliver:
			sink.Record(trace.Event{
				Time: e.Time, Kind: trace.KindDeliver,
				From: e.From, To: e.To, Channel: e.Channel,
			})
		case EventSlot:
			for u, a := range e.Actions {
				if a.Mode != radio.Transmit {
					continue
				}
				sink.Record(trace.Event{
					Time: e.Time, Kind: trace.KindTx,
					From: topology.NodeID(u), Channel: a.Channel,
				})
			}
		case EventCollision:
			sink.Record(trace.Event{
				Time: e.Time, Kind: trace.KindCollision,
				From: e.From, To: e.To, Channel: e.Channel,
			})
		case EventIdle:
			sink.Record(trace.Event{
				Time: e.Time, Kind: trace.KindIdle,
				To: e.To, Channel: e.Channel,
			})
		case EventFrameStart:
			sink.Record(trace.Event{
				Time: e.Time, Kind: trace.KindFrameStart,
				From: e.Node, Frame: e.Slot,
				Channel: e.Action.Channel, Note: e.Action.Mode.String(),
			})
		case EventFrameResolve:
			sink.Record(trace.Event{
				Time: e.Time, Kind: trace.KindFrameResolve,
				From: e.Node, Frame: e.Slot,
				Channel: e.Action.Channel, Note: e.Action.Mode.String(),
				Collected: e.Collected, Delivered: e.Delivered,
			})
		case EventEpoch:
			sink.Record(trace.Event{
				Time: e.Time, Kind: trace.KindEpoch, Epoch: e.Epoch,
			})
		case EventJoin:
			sink.Record(trace.Event{
				Time: e.Time, Kind: trace.KindJoin,
				From: e.Node, Epoch: e.Epoch,
			})
		case EventLeave:
			sink.Record(trace.Event{
				Time: e.Time, Kind: trace.KindLeave,
				From: e.Node, Epoch: e.Epoch,
			})
		case EventChannelLoss:
			sink.Record(trace.Event{
				Time: e.Time, Kind: trace.KindChannelLoss,
				From: e.Node, Channel: e.Channel, Epoch: e.Epoch,
			})
		}
	})
}

// EnergyObserver feeds slot events to an energy meter (the duty-cycle
// accountant of the synchronous engine).
func EnergyObserver(m *metrics.EnergyMeter) Observer {
	if m == nil {
		return nil
	}
	return OnlyEvents(MaskOf(EventSlot), ObserverFunc(func(e Event) {
		m.ObserveSlot(e.Slot, e.Actions)
	}))
}

// borrowHeard returns the message view of a heard-list snapshot the
// engine took into its reused buffer: nil for an empty list (as for the
// paper's plain algorithms, which report none), the buffer otherwise —
// lent to the receiver for one Deliver call (see radio.Message.Heard).
func borrowHeard(snapshot []topology.NodeID) []topology.NodeID {
	if len(snapshot) == 0 {
		return nil
	}
	return snapshot
}

// DeliverObserver adapts a delivery callback: f is invoked for every
// EventDeliver with the event's time (slot index for synchronous runs,
// real time for asynchronous runs) and link coordinates.
func DeliverObserver(f func(at float64, from, to topology.NodeID, ch channel.ID)) Observer {
	if f == nil {
		return nil
	}
	return OnlyEvents(MaskOf(EventDeliver), ObserverFunc(func(e Event) {
		f(e.Time, e.From, e.To, e.Channel)
	}))
}
