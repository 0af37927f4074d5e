package sim

import (
	"fmt"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/core"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// wrapAck builds Algorithm 3 wrapped with the acknowledgment extension for
// every node of nw.
func wrapAck(t *testing.T, nw *topology.Network, deltaEst int, seed uint64) ([]SyncProtocol, []*core.Acknowledging) {
	t.Helper()
	root := rng.New(seed)
	protos := make([]SyncProtocol, nw.N())
	wrappers := make([]*core.Acknowledging, nw.N())
	for u := 0; u < nw.N(); u++ {
		inner, err := core.NewSyncUniform(nw.Avail(topology.NodeID(u)), deltaEst, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		w, err := core.NewAcknowledging(topology.NodeID(u), inner)
		if err != nil {
			t.Fatal(err)
		}
		protos[u] = w
		wrappers[u] = w
	}
	return protos, wrappers
}

func TestAckSymmetricPairConfirmsBothWays(t *testing.T) {
	nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
	protos, wrappers := wrapAck(t, nw, 2, 11)
	res, err := RunSync(SyncConfig{
		Network:       nw,
		Protocols:     protos,
		MaxSlots:      2000,
		RunToMaxSlots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("pair discovery incomplete")
	}
	if !wrappers[0].HasConfirmed(1) || !wrappers[1].HasConfirmed(0) {
		t.Fatalf("symmetric pair not mutually confirmed: 0→1 %v, 1→0 %v",
			wrappers[0].HasConfirmed(1), wrappers[1].HasConfirmed(0))
	}
}

func TestAckAsymmetricLinkNeverConfirms(t *testing.T) {
	// 0→1 dropped: node 0 still hears node 1 (in-link), but neither side
	// can ever confirm an out-link — confirmation needs a round trip and
	// only one direction exists.
	nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
	if err := nw.DropDirection(0, 1); err != nil {
		t.Fatal(err)
	}
	protos, wrappers := wrapAck(t, nw, 2, 12)
	if _, err := RunSync(SyncConfig{
		Network:       nw,
		Protocols:     protos,
		MaxSlots:      4000,
		RunToMaxSlots: true,
	}); err != nil {
		t.Fatal(err)
	}
	if !wrappers[0].Neighbors().Has(1) {
		t.Fatal("surviving direction not discovered")
	}
	if len(wrappers[0].Confirmed()) != 0 || len(wrappers[1].Confirmed()) != 0 {
		t.Fatalf("one-way link produced confirmations: %v / %v",
			wrappers[0].Confirmed(), wrappers[1].Confirmed())
	}
}

func TestAckTriangleRoundTrip(t *testing.T) {
	// Symmetric triangle: everyone eventually confirms everyone.
	nw, err := topology.Clique(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 2); err != nil {
		t.Fatal(err)
	}
	protos, wrappers := wrapAck(t, nw, 2, 13)
	if _, err := RunSync(SyncConfig{
		Network:       nw,
		Protocols:     protos,
		MaxSlots:      5000,
		RunToMaxSlots: true,
	}); err != nil {
		t.Fatal(err)
	}
	for u, w := range wrappers {
		if len(w.Confirmed()) != 2 {
			t.Fatalf("node %d confirmed %v, want both others", u, w.Confirmed())
		}
	}
}

// TestAckTiledMatchesSingleThreaded runs the acknowledgment extension on
// the tiled path: tiles snapshot a sender's heard-list into their own
// buffers, concurrently (AppendHeard only reads the sender's table, which
// no one writes while it transmits), and the confirmations and coverage
// must match the single-threaded engine's exactly.
func TestAckTiledMatchesSingleThreaded(t *testing.T) {
	nw := tiledNet(t, 31, 48, 0.3)
	const maxSlots = 600
	run := func(tl *topology.Tiling) (*SyncResult, []*core.Acknowledging, Internals) {
		protos, wrappers := wrapAck(t, nw, 16, 77)
		rec := &InternalsRecorder{}
		res, err := RunSync(SyncConfig{
			Network: nw, Protocols: protos, MaxSlots: maxSlots, RunToMaxSlots: true,
			Tiling: tl, Observer: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, wrappers, rec.Last
	}
	base, baseAck, _ := run(nil)
	got, gotAck, in := run(mustTiling(t, nw, 2, 2))
	if in.TiledSlots != maxSlots {
		t.Fatalf("tiled path ran %d of %d slots", in.TiledSlots, maxSlots)
	}
	sameCoverage(t, "ack tiled", base.Coverage, got.Coverage)
	confirmed := 0
	for u := range baseAck {
		want, have := baseAck[u].Confirmed(), gotAck[u].Confirmed()
		if fmt.Sprint(want) != fmt.Sprint(have) {
			t.Fatalf("node %d confirmed %v tiled, %v single-threaded", u, have, want)
		}
		confirmed += len(want)
	}
	if confirmed == 0 {
		t.Fatal("no confirmations; the heard-list path was not exercised")
	}
}
