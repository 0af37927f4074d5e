package sim

// Differential testing of incremental decision generation: the engines
// (each decision drawn lazily, in whatever order the engine needs it) must
// be byte-identical to replays of decisions pre-generated node-major up
// front — the pre-incremental engines' order — for oblivious protocols,
// across both engines, with and without loss models and dynamic worlds.
// Divergence means decision indexing leaked engine scheduling into a
// node's private rng stream.

import (
	"fmt"
	"testing"

	"m2hew/internal/clock"
	"m2hew/internal/core"
	"m2hew/internal/dynamics"
	"m2hew/internal/metrics"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// syncReplay replays a wrapped protocol's pre-generated decisions from
// Step and forwards everything else — Deliver, ReserveNeighbors and (via
// syncReplayHeard) AppendHeard — to it. Pre-generation is sound only for
// oblivious protocols, whose decisions never depend on what they receive.
type syncReplay struct {
	SyncProtocol
	decisions []radio.Action
}

// Step replays decision k; it panics past the pre-generated horizon.
func (p *syncReplay) Step(k int) radio.Action { return p.decisions[k] }

func (p *syncReplay) ReserveNeighbors(expected int) {
	if r, ok := p.SyncProtocol.(NeighborReserver); ok {
		r.ReserveNeighbors(expected)
	}
}

// syncReplayHeard is a syncReplay of a HeardReporter; a separate type so
// replays of non-reporters do not become reporters.
type syncReplayHeard struct {
	*syncReplay
	HeardReporter
}

// pregenSync pre-generates horizon decisions from every protocol,
// node-major (all of node 0's, then node 1's, …), and returns replays.
func pregenSync(t *testing.T, protos []SyncProtocol, horizon int) []SyncProtocol {
	t.Helper()
	out := make([]SyncProtocol, len(protos))
	for u, p := range protos {
		r := &syncReplay{SyncProtocol: p, decisions: make([]radio.Action, horizon)}
		for k := range r.decisions {
			r.decisions[k] = p.Step(k)
		}
		out[u] = r
		if hr, ok := p.(HeardReporter); ok {
			out[u] = syncReplayHeard{r, hr}
		}
	}
	return out
}

// asyncReplay is syncReplay for asynchronous protocols: NextFrame replays.
type asyncReplay struct {
	AsyncProtocol
	decisions []radio.Action
}

// NextFrame replays decision k; it panics past the pre-generated horizon.
func (p *asyncReplay) NextFrame(k int) radio.Action { return p.decisions[k] }

func (p *asyncReplay) ReserveNeighbors(expected int) {
	if r, ok := p.AsyncProtocol.(NeighborReserver); ok {
		r.ReserveNeighbors(expected)
	}
}

type asyncReplayHeard struct {
	*asyncReplay
	HeardReporter
}

// pregenAsync returns nodes whose protocols replay horizon frame decisions
// pre-generated node-major; clocks and starts are shared with nodes.
func pregenAsync(t *testing.T, nodes []AsyncNode, horizon int) []AsyncNode {
	t.Helper()
	out := append([]AsyncNode(nil), nodes...)
	for u := range out {
		p := nodes[u].Protocol
		r := &asyncReplay{AsyncProtocol: p, decisions: make([]radio.Action, horizon)}
		for k := range r.decisions {
			r.decisions[k] = p.NextFrame(k)
		}
		out[u].Protocol = r
		if hr, ok := p.(HeardReporter); ok {
			out[u].Protocol = asyncReplayHeard{r, hr}
		}
	}
	return out
}

// diffNet builds a seeded geometric multi-channel network.
func diffNet(t *testing.T, seed uint64, n int) *topology.Network {
	t.Helper()
	r := rng.New(seed)
	nw, err := topology.GeometricConnected(n, 0.55, r, 100)
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	if err := topology.AssignBernoulli(nw, 6, 0.7, r); err != nil {
		t.Fatalf("channels: %v", err)
	}
	return nw
}

// syncProtos builds one seeded set of staged protocols.
func syncProtos(t *testing.T, nw *topology.Network, seed uint64) []SyncProtocol {
	t.Helper()
	root := rng.New(seed)
	protos := make([]SyncProtocol, nw.N())
	for u := 0; u < nw.N(); u++ {
		p, err := core.NewSyncStaged(nw.Avail(topology.NodeID(u)), 8, root.Split())
		if err != nil {
			t.Fatalf("protocol %d: %v", u, err)
		}
		protos[u] = p
	}
	return protos
}

// sameCoverage asserts two coverage records are byte-identical: same
// target, same first-coverage instant per link, same latency profile.
func sameCoverage(t *testing.T, label string, a, b *metrics.Coverage) {
	t.Helper()
	if a.TargetSize() != b.TargetSize() || a.Remaining() != b.Remaining() {
		t.Fatalf("%s: target %d/%d remaining %d/%d", label,
			a.TargetSize(), b.TargetSize(), a.Remaining(), b.Remaining())
	}
	ca, cb := a.Curve(), b.Curve()
	if len(ca) != len(cb) {
		t.Fatalf("%s: curve lengths %d vs %d", label, len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("%s: curve[%d] = %+v vs %+v", label, i, ca[i], cb[i])
		}
	}
	la, lb := a.Latencies(), b.Latencies()
	if len(la) != len(lb) {
		t.Fatalf("%s: latency counts %d vs %d", label, len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("%s: latency[%d] = %v vs %v", label, i, la[i], lb[i])
		}
	}
}

func TestSyncPregenDifferential(t *testing.T) {
	const maxSlots = 4000
	for _, seed := range []uint64{1, 7, 23} {
		nw := diffNet(t, seed, 14)

		lazyCfg := SyncConfig{Network: nw, Protocols: syncProtos(t, nw, seed+100), MaxSlots: maxSlots}
		lazy, err := RunSync(lazyCfg)
		if err != nil {
			t.Fatalf("seed %d lazy: %v", seed, err)
		}

		protos := pregenSync(t, syncProtos(t, nw, seed+100), maxSlots)
		pre, err := RunSync(SyncConfig{Network: nw, Protocols: protos, MaxSlots: maxSlots})
		if err != nil {
			t.Fatalf("seed %d pregen run: %v", seed, err)
		}

		if lazy.Complete != pre.Complete || lazy.CompletionSlot != pre.CompletionSlot {
			t.Fatalf("seed %d: completion %v@%d vs %v@%d", seed,
				lazy.Complete, lazy.CompletionSlot, pre.Complete, pre.CompletionSlot)
		}
		sameCoverage(t, "sync", lazy.Coverage, pre.Coverage)
	}
}

func TestSyncPregenDifferentialWithLoss(t *testing.T) {
	const maxSlots = 6000
	nw := diffNet(t, 5, 12)
	run := func(pregen bool) *SyncResult {
		t.Helper()
		protos := syncProtos(t, nw, 42)
		if pregen {
			protos = pregenSync(t, protos, maxSlots)
		}
		loss, err := NewLossModel(0.3, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSync(SyncConfig{Network: nw, Protocols: protos, MaxSlots: maxSlots, Loss: loss})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lazy, pre := run(false), run(true)
	// Loss-model erasure draws are consumed in resolution order, which
	// pre-generation does not alter — lossy runs must match too.
	sameCoverage(t, "sync+loss", lazy.Coverage, pre.Coverage)
}

func TestSyncPregenDifferentialDynamics(t *testing.T) {
	const maxSlots, epochSlots = 6000, 200
	nw := diffNet(t, 3, 14)
	spec := dynamics.Spec{
		EpochLen: epochSlots,
		Churn:    &dynamics.Churn{JoinFraction: 0.4, JoinWindow: 10, LeaveFraction: 0.2, LeaveWindow: 10},
		Primary:  &dynamics.Primary{Events: 2, Duration: 5, Radius: 0.4},
	}
	run := func(pregen bool) *SyncResult {
		t.Helper()
		protos := syncProtos(t, nw, 77)
		if pregen {
			// Local activation counts never exceed the slot horizon, so the
			// static horizon bounds the replay under churn too.
			protos = pregenSync(t, protos, maxSlots)
		}
		world, err := dynamics.NewWorld(nw, spec, maxSlots/epochSlots, rng.New(13))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSync(SyncConfig{Network: nw, Protocols: protos, MaxSlots: maxSlots, Dynamics: world})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameCoverage(t, "sync+dynamics", run(false).Coverage, run(true).Coverage)
}

// TestSyncPregenDifferentialHeardReporter replays acknowledging protocols
// (HeardReporter and NeighborReserver): the replay must forward
// AppendHeard, ReserveNeighbors and Deliver so the piggybacked heard-lists,
// and with them every confirmation, match the lazy run.
func TestSyncPregenDifferentialHeardReporter(t *testing.T) {
	const maxSlots = 3000
	nw := diffNet(t, 11, 12)
	run := func(pregen bool) (*SyncResult, [][]topology.NodeID) {
		t.Helper()
		protos, wrappers := wrapAck(t, nw, 8, 21)
		if pregen {
			protos = pregenSync(t, protos, maxSlots)
			if _, ok := protos[0].(HeardReporter); !ok {
				t.Fatal("replay of a HeardReporter is not one")
			}
		}
		res, err := RunSync(SyncConfig{Network: nw, Protocols: protos, MaxSlots: maxSlots, RunToMaxSlots: true})
		if err != nil {
			t.Fatal(err)
		}
		confirmed := make([][]topology.NodeID, len(wrappers))
		for u, w := range wrappers {
			confirmed[u] = w.Confirmed()
		}
		return res, confirmed
	}
	lazy, lazyConf := run(false)
	pre, preConf := run(true)
	sameCoverage(t, "sync+ack", lazy.Coverage, pre.Coverage)
	total := 0
	for u := range lazyConf {
		if fmt.Sprint(lazyConf[u]) != fmt.Sprint(preConf[u]) {
			t.Fatalf("node %d confirmed %v lazily, %v replayed", u, lazyConf[u], preConf[u])
		}
		total += len(lazyConf[u])
	}
	if total == 0 {
		t.Fatal("no confirmations: the heard-list forwarding went unexercised")
	}
}

// asyncNodes builds one seeded set of asynchronous nodes with mildly
// drifting clocks and staggered starts.
func asyncNodes(t *testing.T, nw *topology.Network, seed uint64) []AsyncNode {
	t.Helper()
	root := rng.New(seed)
	nodes := make([]AsyncNode, nw.N())
	for u := 0; u < nw.N(); u++ {
		p, err := core.NewAsync(nw.Avail(topology.NodeID(u)), 8, root.Split())
		if err != nil {
			t.Fatalf("protocol %d: %v", u, err)
		}
		drift, err := clock.NewRandomWalk(0.1, 0.03, root.Split())
		if err != nil {
			t.Fatalf("drift %d: %v", u, err)
		}
		nodes[u] = AsyncNode{Protocol: p, Start: root.Float64() * 10, Drift: drift}
	}
	return nodes
}

func TestAsyncPregenDifferential(t *testing.T) {
	const maxFrames = 400
	for _, seed := range []uint64{2, 9} {
		nw := diffNet(t, seed, 12)
		run := func(runToMax, pregen bool) *AsyncResult {
			t.Helper()
			nodes := asyncNodes(t, nw, seed+500)
			if pregen {
				nodes = pregenAsync(t, nodes, maxFrames)
			}
			res, err := RunAsync(AsyncConfig{Network: nw, Nodes: nodes, FrameLen: 3, MaxFrames: maxFrames, RunToMaxFrames: runToMax})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		sameCoverage(t, "async", run(false, false).Coverage, run(false, true).Coverage)
		sameCoverage(t, "async to max frames", run(true, false).Coverage, run(true, true).Coverage)
	}
}

func TestAsyncPregenDifferentialDynamics(t *testing.T) {
	const maxFrames = 400
	nw := diffNet(t, 4, 12)
	spec := dynamics.Spec{
		EpochLen: 60,
		Churn:    &dynamics.Churn{JoinFraction: 0.3, JoinWindow: 6, LeaveFraction: 0.2, LeaveWindow: 8},
		Primary:  &dynamics.Primary{Events: 2, Duration: 4, Radius: 0.4},
	}
	run := func(pregen bool) *AsyncResult {
		t.Helper()
		nodes := asyncNodes(t, nw, 800)
		if pregen {
			nodes = pregenAsync(t, nodes, maxFrames)
		}
		world, err := dynamics.NewWorld(nw, spec, 25, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunAsync(AsyncConfig{Network: nw, Nodes: nodes, FrameLen: 3, MaxFrames: maxFrames, Dynamics: world})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameCoverage(t, "async+dynamics", run(false).Coverage, run(true).Coverage)
}
