package sim

import (
	"reflect"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/clock"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
	"m2hew/internal/trace"
)

// TestSyncCollisionIdleEvents hand-checks the synchronous engine's full
// event stream on a 3-node line (0–1–2, one channel):
//
//	slot 0: 0 and 2 transmit, 1 listens  → collision at 1 (first survivor 0)
//	slot 1: 0 transmits, 1 and 2 listen  → deliver 0→1; idle at 2 (its only
//	        candidate, node 1, is not transmitting — the post-scan idle path)
//	slot 2: everyone listens             → idle at 0, 1, 2 (silent-channel path)
func TestSyncCollisionIdleEvents(t *testing.T) {
	nw, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 1); err != nil {
		t.Fatal(err)
	}
	protos := []SyncProtocol{
		&scriptSync{actions: []radio.Action{tx(0), tx(0), rx(0)}},
		&scriptSync{actions: []radio.Action{rx(0), rx(0), rx(0)}},
		&scriptSync{actions: []radio.Action{tx(0), rx(0), rx(0)}},
	}
	var got []Event
	_, err = RunSync(SyncConfig{
		Network:       nw,
		Protocols:     protos,
		MaxSlots:      3,
		RunToMaxSlots: true,
		Observer: ObserverFunc(func(e Event) {
			e.Actions = nil // borrowed; drop before retaining
			got = append(got, e)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: EventSlot, Time: 0, Slot: 0},
		{Kind: EventCollision, Time: 0, Slot: 0, From: 0, To: 1, Channel: 0},
		{Kind: EventSlot, Time: 1, Slot: 1},
		{Kind: EventDeliver, Time: 1, Slot: 1, From: 0, To: 1, Channel: 0},
		{Kind: EventIdle, Time: 1, Slot: 1, To: 2, Channel: 0},
		{Kind: EventSlot, Time: 2, Slot: 2},
		{Kind: EventIdle, Time: 2, Slot: 2, To: 0, Channel: 0},
		{Kind: EventIdle, Time: 2, Slot: 2, To: 1, Channel: 0},
		{Kind: EventIdle, Time: 2, Slot: 2, To: 2, Channel: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d:\n%+v", len(got), len(want), got)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// asyncEventPair builds the standard two-node asynchronous event scenario:
// node 0 always transmits, node 1 always listens, ideal clocks, common
// start, frame length 3, 2 frames.
func asyncEventPair(t *testing.T, obs Observer) AsyncConfig {
	t.Helper()
	nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
	return AsyncConfig{
		Network: nw,
		Nodes: []AsyncNode{
			{Protocol: &scriptAsync{actions: []radio.Action{tx(0)}}},
			{Protocol: &scriptAsync{actions: []radio.Action{rx(0)}}},
		},
		FrameLen:  3,
		MaxFrames: 2,
		Observer:  obs,
	}
}

// TestAsyncFrameEvents pins RunAsync's one emission order: each frame's
// events go out together at its end, frames in global frame-end order
// (ties to the lower node) — EventFrameStart, then a listening frame's
// deliveries, then its EventFrameResolve. Node 0's transmit frames emit
// only their start. Each listening frame of node 1 fully contains one
// 3-slot transmit frame of node 0: Collected = 3 slots, Delivered = 1 (one
// delivery per sender per frame).
func TestAsyncFrameEvents(t *testing.T) {
	checkAsyncPairEvents(t, false)
}

// TestAsyncFrameEventsRunToMaxFrames pins the same order when the run
// keeps going to MaxFrames instead of stopping at full coverage: the
// frame-by-frame emission does not depend on the stopping rule.
func TestAsyncFrameEventsRunToMaxFrames(t *testing.T) {
	checkAsyncPairEvents(t, true)
}

func checkAsyncPairEvents(t *testing.T, runToMax bool) {
	t.Helper()
	var got []Event
	cfg := asyncEventPair(t, ObserverFunc(func(e Event) { got = append(got, e) }))
	cfg.RunToMaxFrames = runToMax
	if _, err := RunAsync(cfg); err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: EventFrameStart, Time: 0, Slot: 0, Node: 0, Action: tx(0)},
		{Kind: EventFrameStart, Time: 0, Slot: 0, Node: 1, Action: rx(0)},
		{Kind: EventDeliver, Time: 1, From: 0, To: 1, Channel: 0},
		{Kind: EventFrameResolve, Time: 3, Slot: 0, Node: 1, Action: rx(0), Collected: 3, Delivered: 1},
		{Kind: EventFrameStart, Time: 3, Slot: 1, Node: 0, Action: tx(0)},
		{Kind: EventFrameStart, Time: 3, Slot: 1, Node: 1, Action: rx(0)},
		{Kind: EventDeliver, Time: 4, From: 0, To: 1, Channel: 0},
		{Kind: EventFrameResolve, Time: 6, Slot: 1, Node: 1, Action: rx(0), Collected: 3, Delivered: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d:\n%+v", len(got), len(want), got)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestAsyncFrameOrder pins RunAsync's scheduler against a linear-scan
// reference: frames resolve by earliest end, ties to the lowest NodeID.
// Aligned ideal clocks starting half a frame apart give most frame ends
// several owners, so the ties decide much of the order.
func TestAsyncFrameOrder(t *testing.T) {
	const (
		n         = 37
		frameLen  = 3.0
		maxFrames = 12
	)
	nw, err := topology.Clique(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 1); err != nil {
		t.Fatal(err)
	}
	nodes := make([]AsyncNode, n)
	ends := make([][]float64, n)
	for u := range nodes {
		// Starts cycle through 0, 1.5, …, 6 in a stride that scatters
		// each start class over the NodeID range.
		start := float64((u*3)%5) * frameLen / 2
		nodes[u] = AsyncNode{Protocol: scriptOf("TRqR"[u%4:]), Start: start}
		tl, err := clock.NewTimeline(start, frameLen, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < maxFrames; f++ {
			_, end := tl.FrameInterval(f)
			ends[u] = append(ends[u], end)
		}
	}
	type frameID struct {
		node  topology.NodeID
		frame int
	}
	var got []frameID
	if _, err := RunAsync(AsyncConfig{
		Network: nw, Nodes: nodes, FrameLen: frameLen, MaxFrames: maxFrames, RunToMaxFrames: true,
		Observer: OnlyEvents(MaskOf(EventFrameStart), ObserverFunc(func(e Event) {
			got = append(got, frameID{e.Node, e.Slot})
		})),
	}); err != nil {
		t.Fatal(err)
	}

	var want []frameID
	next := make([]int, n)
	ties := 0
	for {
		best := -1
		for u := 0; u < n; u++ {
			if next[u] == maxFrames {
				continue
			}
			if best >= 0 && ends[u][next[u]] == ends[best][next[best]] {
				ties++
			}
			if best < 0 || ends[u][next[u]] < ends[best][next[best]] {
				best = u
			}
		}
		if best < 0 {
			break
		}
		want = append(want, frameID{topology.NodeID(best), next[best]})
		next[best]++
	}
	if ties < n*maxFrames/2 {
		t.Fatalf("only %d tied frame ends; the order test needs many", ties)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frame order differs from the linear scan:\nengine %v\nscan   %v", got, want)
	}
}

func TestEventTraceObserver(t *testing.T) {
	if EventTraceObserver(nil) != nil {
		t.Error("EventTraceObserver(nil) should be nil")
	}
	ring, err := trace.NewRing(16)
	if err != nil {
		t.Fatal(err)
	}
	obs := EventTraceObserver(ring)
	obs.OnEvent(Event{Kind: EventSlot, Time: 2, Slot: 2, Actions: []radio.Action{
		tx(1), rx(1), {Mode: radio.Quiet},
	}})
	obs.OnEvent(Event{Kind: EventDeliver, Time: 2, From: 0, To: 1, Channel: 1})
	obs.OnEvent(Event{Kind: EventCollision, Time: 3, From: 0, To: 2, Channel: 1})
	obs.OnEvent(Event{Kind: EventIdle, Time: 3, To: 1, Channel: 0})
	obs.OnEvent(Event{Kind: EventFrameStart, Time: 1.5, Slot: 4, Node: 2, Action: rx(0)})
	obs.OnEvent(Event{Kind: EventFrameResolve, Time: 4.5, Slot: 4, Node: 2, Action: rx(0), Collected: 2, Delivered: 1})

	want := []trace.Event{
		{Time: 2, Kind: trace.KindTx, From: 0, Channel: 1},
		{Time: 2, Kind: trace.KindDeliver, From: 0, To: 1, Channel: 1},
		{Time: 3, Kind: trace.KindCollision, From: 0, To: 2, Channel: 1},
		{Time: 3, Kind: trace.KindIdle, To: 1, Channel: 0},
		{Time: 1.5, Kind: trace.KindFrameStart, From: 2, Frame: 4, Channel: 0, Note: "rx"},
		{Time: 4.5, Kind: trace.KindFrameResolve, From: 2, Frame: 4, Channel: 0, Note: "rx", Collected: 2, Delivered: 1},
	}
	got := ring.Events()
	if len(got) != len(want) {
		t.Fatalf("recorded %d events, want %d:\n%s", len(got), len(want), trace.Format(got))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// sinkAsync repeats one action forever and counts deliveries without
// retaining them.
type sinkAsync struct {
	act       radio.Action
	delivered int
}

func (s *sinkAsync) NextFrame(int) radio.Action { return s.act }
func (s *sinkAsync) Deliver(_ radio.Message)    { s.delivered++ }

// asyncAllocConfig builds a 4-node clique scenario where node 0 transmits
// and the rest listen — deliveries every listening frame, exercising both
// the resolver and the delivery path.
func asyncAllocConfig(t *testing.T) (AsyncConfig, []*sinkAsync) {
	t.Helper()
	nw, err := topology.Clique(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 1); err != nil {
		t.Fatal(err)
	}
	sinks := make([]*sinkAsync, 4)
	nodes := make([]AsyncNode, 4)
	for u := range nodes {
		act := radio.Action{Mode: radio.Receive, Channel: 0}
		if u == 0 {
			act = radio.Action{Mode: radio.Transmit, Channel: 0}
		}
		sinks[u] = &sinkAsync{act: act}
		nodes[u] = AsyncNode{Protocol: sinks[u]}
	}
	return AsyncConfig{Network: nw, Nodes: nodes, FrameLen: 3, MaxFrames: 64}, sinks
}

// TestAsyncNilObserverNoAllocs pins the asynchronous engine's telemetry
// cost at zero when disabled: with a nil observer the frame-event emission
// sites construct no Event values, so the engine performs only its fixed
// per-run setup (timelines, frame tables, env scratch, coverage), whether
// it stops at completion or runs its whole horizon. The budget sits far
// below the 64-frame × 4-node horizon, so one hidden per-frame or
// per-event allocation blows it.
func TestAsyncNilObserverNoAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		runToMax bool
	}{
		{"RunAsync", false},
		{"RunToMaxFrames", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, sinks := asyncAllocConfig(t)
			cfg.RunToMaxFrames = tc.runToMax
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := RunAsync(cfg); err != nil {
					t.Fatal(err)
				}
			})
			if sinks[1].delivered == 0 {
				t.Fatal("scenario produced no deliveries; the guard tests nothing")
			}
			if allocs > 600 {
				t.Errorf("%s with nil observer allocated %.0f objects per run", tc.name, allocs)
			}
		})
	}
}
