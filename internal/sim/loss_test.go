package sim

import (
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/core"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

func TestLossModelValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := NewLossModel(-0.1, r); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := NewLossModel(1, r); err == nil {
		t.Error("probability 1 accepted")
	}
	if _, err := NewLossModel(0.5, nil); err == nil {
		t.Error("nil rng with positive probability accepted")
	}
	if _, err := NewLossModel(0, nil); err != nil {
		t.Error("zero-probability model without rng rejected")
	}
}

func TestLossNilModelReliable(t *testing.T) {
	var l *LossModel
	for i := 0; i < 100; i++ {
		if l.erased() {
			t.Fatal("nil model erased a transmission")
		}
	}
}

func TestSyncLossBlocksDeliveries(t *testing.T) {
	// With an extreme loss rate, most deliveries vanish even though the
	// schedule guarantees a clean transmission every slot.
	nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
	sender := &scriptSync{actions: []radio.Action{tx(0)}}
	receiver := &scriptSync{actions: []radio.Action{rx(0)}}
	loss, err := NewLossModel(0.9, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	const slots = 2000
	if _, err := RunSync(SyncConfig{
		Network:       nw,
		Protocols:     []SyncProtocol{sender, receiver},
		MaxSlots:      slots,
		RunToMaxSlots: true,
		Loss:          loss,
	}); err != nil {
		t.Fatal(err)
	}
	got := len(receiver.delivered)
	if got < slots/20 || got > slots/4 {
		t.Fatalf("with 90%% loss received %d/%d, want ~10%%", got, slots)
	}
}

func TestSyncLossErasureRemovesInterference(t *testing.T) {
	// Deep fades make colliding transmissions recoverable: two leaves
	// always transmit, hub always listens. With 50% loss, the hub should
	// sometimes hear exactly one of them cleanly — impossible on reliable
	// channels (tested by TestSyncCollision).
	nw, err := topology.Star(3)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 3; u++ {
		nw.SetAvail(topology.NodeID(u), channel.NewSet(0))
	}
	hub := &scriptSync{actions: []radio.Action{rx(0)}}
	leaf1 := &scriptSync{actions: []radio.Action{tx(0)}}
	leaf2 := &scriptSync{actions: []radio.Action{tx(0)}}
	loss, err := NewLossModel(0.5, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSync(SyncConfig{
		Network:       nw,
		Protocols:     []SyncProtocol{hub, leaf1, leaf2},
		MaxSlots:      400,
		RunToMaxSlots: true,
		Loss:          loss,
	}); err != nil {
		t.Fatal(err)
	}
	if len(hub.delivered) == 0 {
		t.Fatal("fading never separated the colliding transmitters")
	}
}

func TestAsyncLossSlowsDiscovery(t *testing.T) {
	run := func(prob float64) float64 {
		nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
		root := rng.New(99)
		nodes := make([]AsyncNode, 2)
		for u := 0; u < 2; u++ {
			p, err := newCoreAsync(t, nw, topology.NodeID(u), root)
			if err != nil {
				t.Fatal(err)
			}
			nodes[u] = AsyncNode{Protocol: p}
		}
		var loss *LossModel
		if prob > 0 {
			var err error
			loss, err = NewLossModel(prob, root.Split())
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := RunAsync(AsyncConfig{
			Network:   nw,
			Nodes:     nodes,
			FrameLen:  3,
			MaxFrames: 20000,
			Loss:      loss,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatalf("loss %v: discovery incomplete", prob)
		}
		return res.CompletionTime
	}
	reliable := run(0)
	lossy := run(0.8)
	if lossy <= reliable {
		t.Fatalf("80%% loss did not slow discovery: %v vs %v", lossy, reliable)
	}
}

func TestSyncAsymmetricLinkDiscovery(t *testing.T) {
	// Asymmetric pair: node 0's transmissions never reach node 1 — only
	// the (1,0) link is discoverable, and node 1 must never hear node 0.
	nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
	if err := nw.DropDirection(0, 1); err != nil {
		t.Fatal(err)
	}
	p0 := &scriptSync{actions: []radio.Action{tx(0), rx(0)}}
	p1 := &scriptSync{actions: []radio.Action{rx(0), tx(0)}}
	res, err := RunSync(SyncConfig{
		Network:       nw,
		Protocols:     []SyncProtocol{p0, p1},
		MaxSlots:      2,
		RunToMaxSlots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.delivered) != 0 {
		t.Fatal("dropped direction delivered a message")
	}
	if len(p0.delivered) != 1 {
		t.Fatalf("surviving direction deliveries = %d, want 1", len(p0.delivered))
	}
	if !res.Complete {
		t.Fatal("asymmetric target not complete (only (1,0) is discoverable)")
	}
}

func TestSyncAsymmetricNoInterference(t *testing.T) {
	// Hub listens; leaf 1 transmits; leaf 2 also transmits but its
	// direction to the hub is dropped, so it must NOT collide at the hub.
	nw, err := topology.Star(3)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 3; u++ {
		nw.SetAvail(topology.NodeID(u), channel.NewSet(0))
	}
	if err := nw.DropDirection(2, 0); err != nil {
		t.Fatal(err)
	}
	hub := &scriptSync{actions: []radio.Action{rx(0)}}
	leaf1 := &scriptSync{actions: []radio.Action{tx(0)}}
	leaf2 := &scriptSync{actions: []radio.Action{tx(0)}}
	if _, err := RunSync(SyncConfig{
		Network:   nw,
		Protocols: []SyncProtocol{hub, leaf1, leaf2},
		MaxSlots:  1,
	}); err != nil {
		t.Fatal(err)
	}
	if len(hub.delivered) != 1 || hub.delivered[0].From != 1 {
		t.Fatalf("hub deliveries %+v; the unreachable leaf interfered", hub.delivered)
	}
}

func TestAsyncAsymmetric(t *testing.T) {
	nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
	if err := nw.DropDirection(0, 1); err != nil {
		t.Fatal(err)
	}
	sender := &scriptAsync{actions: []radio.Action{tx(0)}}
	receiver := &scriptAsync{actions: []radio.Action{rx(0)}}
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
		t.Fatal("async engine delivered over a dropped direction")
	}
}

// newCoreAsync builds a core.Async protocol for node u of nw.
func newCoreAsync(t *testing.T, nw *topology.Network, u topology.NodeID, root *rng.Source) (AsyncProtocol, error) {
	t.Helper()
	return core.NewAsync(nw.Avail(u), 2, root.Split())
}

func TestOnlineEngineWithLoss(t *testing.T) {
	// Erasure draws are consumed in frame-end order; the run must still
	// complete.
	nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
	root := rng.New(321)
	nodes := make([]AsyncNode, 2)
	for u := 0; u < 2; u++ {
		p, err := newCoreAsync(t, nw, topology.NodeID(u), root)
		if err != nil {
			t.Fatal(err)
		}
		nodes[u] = AsyncNode{Protocol: p}
	}
	loss, err := NewLossModel(0.5, root.Split())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAsync(AsyncConfig{
		Network:   nw,
		Nodes:     nodes,
		FrameLen:  3,
		MaxFrames: 20000,
		Loss:      loss,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("lossy run incomplete: %s", res.Coverage)
	}
}

// TestAsyncEnginesRejectLossWithoutRng is the async-side regression test
// for the hand-constructed loss model footgun: &LossModel{Prob: p} with no
// Rng used to nil-panic at the first erasure draw mid-run; the async engine
// must reject it at config validation instead.
func TestAsyncEnginesRejectLossWithoutRng(t *testing.T) {
	nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
	cfg := func() AsyncConfig {
		return AsyncConfig{
			Network:   nw,
			Nodes:     []AsyncNode{{Protocol: &scriptAsync{}}, {Protocol: &scriptAsync{}}},
			FrameLen:  3,
			MaxFrames: 5,
			Loss:      &LossModel{Prob: 0.5},
		}
	}
	if _, err := RunAsync(cfg()); err == nil {
		t.Error("RunAsync accepted a loss model with no rng")
	}
	// Prob 0 without an rng models a reliable channel and stays valid.
	ok := cfg()
	ok.Loss = &LossModel{}
	if _, err := RunAsync(ok); err != nil {
		t.Errorf("RunAsync rejected a zero-probability loss model: %v", err)
	}
}
