package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/clock"
	"m2hew/internal/core"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// scriptAsync plays back fixed per-frame actions (repeating the last) and
// records deliveries.
type scriptAsync struct {
	actions   []radio.Action
	delivered []radio.Message
}

func (s *scriptAsync) NextFrame(frame int) radio.Action {
	if frame < len(s.actions) {
		return s.actions[frame]
	}
	if len(s.actions) == 0 {
		return radio.Action{Mode: radio.Quiet}
	}
	return s.actions[len(s.actions)-1]
}

func (s *scriptAsync) Deliver(msg radio.Message) {
	s.delivered = append(s.delivered, msg)
}

func TestAsyncConfigValidation(t *testing.T) {
	nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
	good := func() AsyncConfig {
		return AsyncConfig{
			Network:   nw,
			Nodes:     []AsyncNode{{Protocol: &scriptAsync{}}, {Protocol: &scriptAsync{}}},
			FrameLen:  3,
			MaxFrames: 5,
		}
	}
	if _, err := RunAsync(good()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := map[string]func(*AsyncConfig){
		"nil network":    func(c *AsyncConfig) { c.Network = nil },
		"node count":     func(c *AsyncConfig) { c.Nodes = c.Nodes[:1] },
		"nil protocol":   func(c *AsyncConfig) { c.Nodes[0].Protocol = nil },
		"zero frame len": func(c *AsyncConfig) { c.FrameLen = 0 },
		"neg slots":      func(c *AsyncConfig) { c.SlotsPerFrame = -1 },
		"zero frames":    func(c *AsyncConfig) { c.MaxFrames = 0 },
	}
	for name, mutate := range cases {
		cfg := good()
		mutate(&cfg)
		if _, err := RunAsync(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAsyncAlignedCleanReception(t *testing.T) {
	// Ideal clocks, same start: transmitter frame 0 is exactly the
	// receiver's frame 0, so all three slots are contained and clear.
	nw := pairNet(t, channel.NewSet(2), channel.NewSet(2))
	sender := &scriptAsync{actions: []radio.Action{tx(2)}}
	receiver := &scriptAsync{actions: []radio.Action{rx(2)}}
	res, err := RunAsync(AsyncConfig{
		Network:   nw,
		Nodes:     []AsyncNode{{Protocol: sender}, {Protocol: receiver}},
		FrameLen:  3,
		MaxFrames: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(receiver.delivered) != 1 {
		t.Fatalf("deliveries = %d, want 1 (one per frame pair, not per slot)", len(receiver.delivered))
	}
	if receiver.delivered[0].From != 0 {
		t.Fatalf("message from %d", receiver.delivered[0].From)
	}
	at, ok := res.Coverage.FirstCovered(topology.Link{From: 0, To: 1})
	if !ok {
		t.Fatal("link (0,1) not covered")
	}
	// Earliest clear slot ends at 1 (slots of length 1 in a frame of 3).
	if math.Abs(at-1) > 1e-9 {
		t.Fatalf("covered at %v, want 1 (end of first slot)", at)
	}
	if len(sender.delivered) != 0 {
		t.Fatal("half duplex violated")
	}
}

func TestAsyncDifferentChannelsNoReception(t *testing.T) {
	nw := pairNet(t, channel.NewSet(0, 1), channel.NewSet(0, 1))
	sender := &scriptAsync{actions: []radio.Action{tx(0)}}
	receiver := &scriptAsync{actions: []radio.Action{rx(1)}}
	_, err := RunAsync(AsyncConfig{
		Network:   nw,
		Nodes:     []AsyncNode{{Protocol: sender}, {Protocol: receiver}},
		FrameLen:  3,
		MaxFrames: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(receiver.delivered) != 0 {
		t.Fatal("received across channels")
	}
}

func TestAsyncCollision(t *testing.T) {
	// Star hub listening; both leaves transmit concurrently with identical
	// ideal clocks: every slot collides.
	nw, err := topology.Star(3)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 3; u++ {
		nw.SetAvail(topology.NodeID(u), channel.NewSet(0))
	}
	hub := &scriptAsync{actions: []radio.Action{rx(0)}}
	leaf1 := &scriptAsync{actions: []radio.Action{tx(0)}}
	leaf2 := &scriptAsync{actions: []radio.Action{tx(0)}}
	_, err = RunAsync(AsyncConfig{
		Network:   nw,
		Nodes:     []AsyncNode{{Protocol: hub}, {Protocol: leaf1}, {Protocol: leaf2}},
		FrameLen:  3,
		MaxFrames: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hub.delivered) != 0 {
		t.Fatal("colliding transmissions were delivered")
	}
}

func TestAsyncPartialSlotNotDecoded(t *testing.T) {
	// Receiver starts mid-way through the sender's middle slot: the first
	// slot [0,1) and part of slot [1,2) precede the receiver's frame
	// [1.5,4.5); only slot [2,3) is fully contained... and it is clear, so
	// exactly one delivery happens for frame pair (0, receiver frame 0).
	nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
	sender := &scriptAsync{actions: []radio.Action{tx(0), quiet()}}
	receiver := &scriptAsync{actions: []radio.Action{rx(0), quiet()}}
	res, err := RunAsync(AsyncConfig{
		Network:   nw,
		Nodes:     []AsyncNode{{Protocol: sender}, {Protocol: receiver, Start: 1.5}},
		FrameLen:  3,
		MaxFrames: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(receiver.delivered) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(receiver.delivered))
	}
	at, _ := res.Coverage.FirstCovered(topology.Link{From: 0, To: 1})
	if math.Abs(at-3) > 1e-9 {
		t.Fatalf("covered at %v, want 3 (end of the contained slot)", at)
	}
}

func TestAsyncNoContainedSlotNoReception(t *testing.T) {
	// Receiver's listening frame is [2.5, 3.25) (short frame via
	// SlotsPerFrame=1, FrameLen=0.75): sender's slots [2,3) and [3,4)
	// overlap it but neither is contained.
	nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
	sender := &scriptAsync{actions: []radio.Action{tx(0)}}
	receiver := &scriptAsync{actions: []radio.Action{rx(0)}}
	// Use two separate runs because FrameLen is global; model the receiver
	// with same FrameLen but offset chosen so no slot is contained.
	// Frame length 3, slots of 1. Receiver start 2.5: frame [2.5,5.5).
	// Sender slots: [0,1),[1,2),[2,3) frame0 (tx); frame1 quiet.
	// Contained slot in [2.5,5.5): none of frame 0's ([2,3) straddles 2.5).
	sender.actions = []radio.Action{tx(0), quiet(), quiet()}
	receiver.actions = []radio.Action{rx(0), quiet(), quiet()}
	_, err := RunAsync(AsyncConfig{
		Network:   nw,
		Nodes:     []AsyncNode{{Protocol: sender}, {Protocol: receiver, Start: 2.5}},
		FrameLen:  3,
		MaxFrames: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(receiver.delivered) != 0 {
		t.Fatalf("deliveries = %d, want 0 (no contained slot)", len(receiver.delivered))
	}
}

func TestAsyncPartialOverlapStillInterferes(t *testing.T) {
	// Hub listens on [0,3). Leaf 1's slot [1,2) is contained. Leaf 2
	// (start 1.5) transmits its first slot [1.5,2.5), overlapping leaf 1's
	// slot: the contained slot is jammed. Leaf 1's slots [0,1) and [2,3):
	// [0,1) is contained and clear (leaf 2 silent before 1.5), so exactly
	// one delivery from leaf 1 still occurs — but [1,2) must not be the
	// one; verify by checking coverage time is 1 (end of slot [0,1)).
	nw, err := topology.Star(3)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 3; u++ {
		nw.SetAvail(topology.NodeID(u), channel.NewSet(0))
	}
	hub := &scriptAsync{actions: []radio.Action{rx(0), quiet()}}
	leaf1 := &scriptAsync{actions: []radio.Action{tx(0), quiet()}}
	leaf2 := &scriptAsync{actions: []radio.Action{tx(0), quiet()}}
	res, err := RunAsync(AsyncConfig{
		Network: nw,
		Nodes: []AsyncNode{
			{Protocol: hub},
			{Protocol: leaf1},
			{Protocol: leaf2, Start: 1.5},
		},
		FrameLen:  3,
		MaxFrames: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	at, ok := res.Coverage.FirstCovered(topology.Link{From: 1, To: 0})
	if !ok {
		t.Fatal("leaf 1 never received cleanly")
	}
	if math.Abs(at-1) > 1e-9 {
		t.Fatalf("clear reception at %v, want 1 (slot [1,2) must be jammed)", at)
	}
	// Leaf 2's own slots: [1.5,2.5) overlaps leaf1's [1,2) and [2,3) →
	// jammed; [2.5,3.5) and [3.5,4.5) not contained in [0,3). So no
	// delivery from leaf 2.
	if _, ok := res.Coverage.FirstCovered(topology.Link{From: 2, To: 0}); ok {
		t.Fatal("leaf 2 delivered despite jam/containment")
	}
}

func TestAsyncInvalidActionRejected(t *testing.T) {
	nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
	bad := &scriptAsync{actions: []radio.Action{tx(9)}}
	other := &scriptAsync{actions: []radio.Action{rx(0)}}
	if _, err := RunAsync(AsyncConfig{
		Network:   nw,
		Nodes:     []AsyncNode{{Protocol: bad}, {Protocol: other}},
		FrameLen:  3,
		MaxFrames: 1,
	}); err == nil {
		t.Fatal("out-of-set transmission accepted")
	}
}

func TestAsyncTsIsMaxStart(t *testing.T) {
	nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
	res, err := RunAsync(AsyncConfig{
		Network: nw,
		Nodes: []AsyncNode{
			{Protocol: &scriptAsync{}, Start: 2},
			{Protocol: &scriptAsync{}, Start: 7.5},
		},
		FrameLen:  3,
		MaxFrames: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ts != 7.5 {
		t.Fatalf("Ts = %v, want 7.5", res.Ts)
	}
}

func TestAsyncOnDeliverChronological(t *testing.T) {
	nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
	// Alternating roles across frames produce several deliveries.
	p0 := &scriptAsync{actions: []radio.Action{tx(0), rx(0), tx(0), rx(0)}}
	p1 := &scriptAsync{actions: []radio.Action{rx(0), tx(0), rx(0), tx(0)}}
	var times []float64
	_, err := RunAsync(AsyncConfig{
		Network:   nw,
		Nodes:     []AsyncNode{{Protocol: p0}, {Protocol: p1}},
		FrameLen:  3,
		MaxFrames: 4,
		Observer: ObserverFunc(func(e Event) {
			if e.Kind == EventDeliver {
				times = append(times, e.Time)
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(times) == 0 {
		t.Fatal("no deliveries")
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("deliveries out of order: %v", times)
		}
	}
}

// scriptOf spells a per-frame action script on channel 0: 'T' transmits,
// 'R' listens, anything else is quiet.
func scriptOf(frames string) *scriptAsync {
	s := &scriptAsync{}
	for _, c := range frames {
		switch c {
		case 'T':
			s.actions = append(s.actions, tx(0))
		case 'R':
			s.actions = append(s.actions, rx(0))
		default:
			s.actions = append(s.actions, quiet())
		}
	}
	return s
}

func TestAsyncFullFrames(t *testing.T) {
	nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
	// Ideal clocks, unit slots. Node 0 frames [0,3), [3,6), [6,9), ...;
	// node 1 starts at 1: [1,4), [4,7), [7,10), ... Node 1's frame-1
	// transmission reaches node 0's frame-1 listen in slot [4,5); node 0's
	// frame-2 transmission reaches node 1's frame-2 listen in slot [7,8).
	res, err := RunAsync(AsyncConfig{
		Network: nw,
		Nodes: []AsyncNode{
			{Protocol: scriptOf("RRTq")},
			{Protocol: scriptOf("qTRq"), Start: 1},
		},
		FrameLen:  3,
		MaxFrames: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Ts != 1 || res.CompletionTime != 8 {
		t.Fatalf("(Complete, Ts, CompletionTime) = (%v, %v, %v), want (true, 1, 8)", res.Complete, res.Ts, res.CompletionTime)
	}
	// Within [1, 8]: node 0 has frame [3,6) only, node 1 has [1,4) and
	// [4,7).
	if res.MinFullFrames != 1 {
		t.Fatalf("MinFullFrames = %d, want 1", res.MinFullFrames)
	}
}

// TestMinFullFramesMatchesTwinTimelines checks the engine's in-run frame
// count against a reference walk over freshly built twin timelines: the
// same starts, and drifts drawn from the same seeds. Each run goes both
// stopping at completion and with RunToMaxFrames, each shape on a reused
// scratch, so the pooled timelines and rate memos of earlier runs carry
// over.
func TestMinFullFramesMatchesTwinTimelines(t *testing.T) {
	nw := scratchTestNetwork(t, 9, 0.5, 31)
	const maxFrames = 3000
	for _, runToMax := range []bool{false, true} {
		scratch := NewAsyncScratch()
		for _, ideal := range []bool{true, false} {
			for seed := uint64(40); seed < 44; seed++ {
				build := func() []AsyncNode {
					nodes := benchAsyncNodesT(t, nw, 4, rng.New(seed))
					if ideal {
						for u := range nodes {
							nodes[u].Drift = nil
						}
					}
					return nodes
				}
				res, err := RunAsync(AsyncConfig{
					Network: nw, Nodes: build(), FrameLen: 3, MaxFrames: maxFrames,
					RunToMaxFrames: runToMax, Scratch: scratch,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Complete {
					t.Fatalf("runToMax=%v ideal=%v seed %d: incomplete", runToMax, ideal, seed)
				}
				want := maxFrames
				for u, nc := range build() {
					tl, err := clock.NewTimeline(nc.Start, 3, 3, nc.Drift)
					if err != nil {
						t.Fatal(err)
					}
					count := 0
					for f := tl.FirstFullFrameAfter(res.Ts); f < maxFrames; f++ {
						if _, end := tl.FrameInterval(f); end > res.CompletionTime {
							break
						}
						count++
					}
					if u == 0 || count < want {
						want = count
					}
				}
				if res.MinFullFrames != want {
					t.Fatalf("runToMax=%v ideal=%v seed %d: MinFullFrames %d, twin timelines %d", runToMax, ideal, seed, res.MinFullFrames, want)
				}
			}
		}
	}
}

// TestConsumedDriftRejected pins that a run consumes its random-walk
// drifts: a second run handed one of them fails at clock set-up, naming the
// node, instead of silently drawing a different walk.
func TestConsumedDriftRejected(t *testing.T) {
	nw := scratchTestNetwork(t, 6, 0.6, 32)
	first := benchAsyncNodesT(t, nw, 4, rng.New(1))
	if _, err := RunAsync(AsyncConfig{Network: nw, Nodes: first, FrameLen: 3, MaxFrames: 100}); err != nil {
		t.Fatal(err)
	}
	again := benchAsyncNodesT(t, nw, 4, rng.New(2))
	again[3].Drift = first[3].Drift
	_, err := RunAsync(AsyncConfig{Network: nw, Nodes: again, FrameLen: 3, MaxFrames: 100})
	if !errors.Is(err, clock.ErrDriftConsumed) || !strings.Contains(err.Error(), "node 3 clock") {
		t.Fatalf("reused drift gave %v; want node 3's drift rejected as consumed", err)
	}
}

func TestAsyncIntegrationCompletesIdealClocks(t *testing.T) {
	nw, err := topology.Clique(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 2); err != nil {
		t.Fatal(err)
	}
	root := rng.New(99)
	nodes := make([]AsyncNode, nw.N())
	for u := 0; u < nw.N(); u++ {
		p, err := core.NewAsync(nw.Avail(topology.NodeID(u)), 3, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		nodes[u] = AsyncNode{Protocol: p}
	}
	res, err := RunAsync(AsyncConfig{
		Network:   nw,
		Nodes:     nodes,
		FrameLen:  3,
		MaxFrames: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("async discovery incomplete: %s", res.Coverage)
	}
	// Tables must match spans.
	for u := 0; u < nw.N(); u++ {
		table := nodes[u].Protocol.(*core.Async).Neighbors()
		for _, v := range nw.Neighbors(topology.NodeID(u)) {
			common, ok := table.Common(v)
			if !ok || !common.Equal(nw.Span(topology.NodeID(u), v)) {
				t.Fatalf("node %d table wrong for %d: %v", u, v, common)
			}
		}
	}
}

func TestAsyncIntegrationCompletesWithDriftAndOffsets(t *testing.T) {
	nw, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignBlockOverlap(nw, 2, 1); err != nil {
		t.Fatal(err)
	}
	root := rng.New(31)
	nodes := make([]AsyncNode, nw.N())
	for u := 0; u < nw.N(); u++ {
		p, err := core.NewAsync(nw.Avail(topology.NodeID(u)), 2, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		drift, err := clock.NewRandomWalk(clock.MaxAsyncDrift, 0.02, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		nodes[u] = AsyncNode{
			Protocol: p,
			Start:    root.Float64() * 10,
			Drift:    drift,
		}
	}
	res, err := RunAsync(AsyncConfig{
		Network:   nw,
		Nodes:     nodes,
		FrameLen:  3,
		MaxFrames: 8000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("drifting async discovery incomplete: %s", res.Coverage)
	}
	if res.CompletionTime <= res.Ts {
		t.Fatalf("completion %v before Ts %v", res.CompletionTime, res.Ts)
	}
}

func TestAsyncDeterminism(t *testing.T) {
	run := func() float64 {
		nw, err := topology.Clique(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := topology.AssignHomogeneous(nw, 2); err != nil {
			t.Fatal(err)
		}
		root := rng.New(555)
		nodes := make([]AsyncNode, nw.N())
		for u := 0; u < nw.N(); u++ {
			p, err := core.NewAsync(nw.Avail(topology.NodeID(u)), 2, root.Split())
			if err != nil {
				t.Fatal(err)
			}
			drift, err := clock.NewRandomWalk(0.1, 0.02, root.Split())
			if err != nil {
				t.Fatal(err)
			}
			nodes[u] = AsyncNode{Protocol: p, Drift: drift, Start: float64(u)}
		}
		res, err := RunAsync(AsyncConfig{Network: nw, Nodes: nodes, FrameLen: 3, MaxFrames: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatal("incomplete")
		}
		return res.CompletionTime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different completion times: %v vs %v", a, b)
	}
}
