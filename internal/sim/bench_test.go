package sim

import (
	"testing"

	"m2hew/internal/clock"
	"m2hew/internal/core"
	"m2hew/internal/dynamics"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// benchNetwork builds a 30-node CR-ish network for engine throughput
// benchmarks.
func benchNetwork(b *testing.B) *topology.Network {
	b.Helper()
	return benchNetworkN(b, 30, 0.35)
}

// benchNetworkN builds an n-node connected geometric network with the same
// channel assignment as the canonical 30-node scenario. The large-n
// benchmarks use it to exercise the regime where per-run table construction
// and timeline growth dominate.
func benchNetworkN(b *testing.B, n int, radius float64) *topology.Network {
	b.Helper()
	r := rng.New(1)
	nw, err := topology.GeometricConnected(n, radius, r, 100)
	if err != nil {
		b.Fatal(err)
	}
	if err := topology.AssignUniformK(nw, 8, 4, r); err != nil {
		b.Fatal(err)
	}
	return nw
}

func BenchmarkRunSync(b *testing.B) {
	nw := benchNetwork(b)
	params := nw.ComputeParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := rng.New(uint64(i) + 1)
		protos := make([]SyncProtocol, nw.N())
		for u := 0; u < nw.N(); u++ {
			p, err := core.NewSyncUniform(nw.Avail(topology.NodeID(u)), params.Delta, root.Split())
			if err != nil {
				b.Fatal(err)
			}
			protos[u] = p
		}
		res, err := RunSync(SyncConfig{
			Network:       nw,
			Protocols:     protos,
			MaxSlots:      2000,
			RunToMaxSlots: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SlotsSimulated), "slots")
	}
}

func benchAsyncNodes(b *testing.B, nw *topology.Network, deltaEst int, seed uint64) []AsyncNode {
	b.Helper()
	root := rng.New(seed)
	nodes := make([]AsyncNode, nw.N())
	for u := 0; u < nw.N(); u++ {
		p, err := core.NewAsync(nw.Avail(topology.NodeID(u)), deltaEst, root.Split())
		if err != nil {
			b.Fatal(err)
		}
		drift, err := clock.NewRandomWalk(clock.MaxAsyncDrift, 0.02, root.Split())
		if err != nil {
			b.Fatal(err)
		}
		nodes[u] = AsyncNode{Protocol: p, Start: root.Float64() * 10, Drift: drift}
	}
	return nodes
}

func BenchmarkRunAsync(b *testing.B) {
	nw := benchNetwork(b)
	params := nw.ComputeParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunAsync(AsyncConfig{
			Network:   nw,
			Nodes:     benchAsyncNodes(b, nw, params.Delta, uint64(i)+1),
			FrameLen:  3,
			MaxFrames: 800,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkRunAsyncOnline(b *testing.B) {
	nw := benchNetwork(b)
	params := nw.ComputeParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunAsyncOnline(AsyncConfig{
			Network:   nw,
			Nodes:     benchAsyncNodes(b, nw, params.Delta, uint64(i)+1),
			FrameLen:  3,
			MaxFrames: 800,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkRunSyncScratch is BenchmarkRunSync at steady state: one scratch
// reused across iterations, so per-run buffers and the network-keyed tables
// amortize away. The gap to BenchmarkRunSync is the trial-loop saving.
func BenchmarkRunSyncScratch(b *testing.B) {
	nw := benchNetwork(b)
	params := nw.ComputeParams()
	scratch := NewSyncScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := rng.New(uint64(i) + 1)
		protos := make([]SyncProtocol, nw.N())
		for u := 0; u < nw.N(); u++ {
			p, err := core.NewSyncUniform(nw.Avail(topology.NodeID(u)), params.Delta, root.Split())
			if err != nil {
				b.Fatal(err)
			}
			protos[u] = p
		}
		if _, err := RunSync(SyncConfig{
			Network:       nw,
			Protocols:     protos,
			MaxSlots:      2000,
			RunToMaxSlots: true,
			Scratch:       scratch,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAsyncScratch is BenchmarkRunAsync at steady state: one scratch
// reused across iterations. This is the configuration the m2hew trial loop
// runs per worker.
func BenchmarkRunAsyncScratch(b *testing.B) {
	nw := benchNetwork(b)
	params := nw.ComputeParams()
	scratch := NewAsyncScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunAsync(AsyncConfig{
			Network:   nw,
			Nodes:     benchAsyncNodes(b, nw, params.Delta, uint64(i)+1),
			FrameLen:  3,
			MaxFrames: 800,
			Scratch:   scratch,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunSyncN200 exercises the synchronous engine in the large-n
// regime (200 nodes), where the grid-bucket topology scan and the dense
// neighbor table matter most.
func BenchmarkRunSyncN200(b *testing.B) {
	nw := benchNetworkN(b, 200, 0.12)
	params := nw.ComputeParams()
	scratch := NewSyncScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := rng.New(uint64(i) + 1)
		protos := make([]SyncProtocol, nw.N())
		for u := 0; u < nw.N(); u++ {
			p, err := core.NewSyncUniform(nw.Avail(topology.NodeID(u)), params.Delta, root.Split())
			if err != nil {
				b.Fatal(err)
			}
			protos[u] = p
		}
		if _, err := RunSync(SyncConfig{
			Network:       nw,
			Protocols:     protos,
			MaxSlots:      500,
			RunToMaxSlots: true,
			Scratch:       scratch,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunSyncN200Observer is BenchmarkRunSyncN200 with a
// deliveries-only masked observer attached — the shape ndperf's headline
// row uses. It pins the cost of the kernel path when an observer is present
// but subscribed away from the per-listener idle/collision flood.
func BenchmarkRunSyncN200Observer(b *testing.B) {
	nw := benchNetworkN(b, 200, 0.12)
	params := nw.ComputeParams()
	scratch := NewSyncScratch()
	var deliveries int64
	obs := OnlyEvents(MaskOf(EventDeliver), ObserverFunc(func(e Event) {
		deliveries++
	}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := rng.New(uint64(i) + 1)
		protos := make([]SyncProtocol, nw.N())
		for u := 0; u < nw.N(); u++ {
			p, err := core.NewSyncUniform(nw.Avail(topology.NodeID(u)), params.Delta, root.Split())
			if err != nil {
				b.Fatal(err)
			}
			protos[u] = p
		}
		if _, err := RunSync(SyncConfig{
			Network:       nw,
			Protocols:     protos,
			MaxSlots:      500,
			RunToMaxSlots: true,
			Scratch:       scratch,
			Observer:      obs,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAsyncN100 exercises the asynchronous engine in the large-n
// regime (100 nodes) at steady state.
func BenchmarkRunAsyncN100(b *testing.B) {
	nw := benchNetworkN(b, 100, 0.16)
	params := nw.ComputeParams()
	scratch := NewAsyncScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunAsync(AsyncConfig{
			Network:   nw,
			Nodes:     benchAsyncNodes(b, nw, params.Delta, uint64(i)+1),
			FrameLen:  3,
			MaxFrames: 200,
			Scratch:   scratch,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAsyncMobility is an E21-shaped run: a 16-node near-clique
// with ideal clocks and identical starts on a random-waypoint world whose
// edges are re-derived every epoch, 3000 frames in one pass (a dynamic run
// takes no frame windows), on a reused scratch as harness.AsyncTrials runs
// it. Each iteration builds a fresh world, so
// epoch derivation and per-epoch mask compilation are in the measurement.
func BenchmarkRunAsyncMobility(b *testing.B) {
	const frameLen, frames, epochLen = 3.0, 3000, 50.0
	r := rng.New(21)
	nw, err := topology.GeometricConnected(16, 0.7, r, 100)
	if err != nil {
		b.Fatal(err)
	}
	if err := topology.AssignUniformK(nw, 6, 4, r); err != nil {
		b.Fatal(err)
	}
	deltaEst := 1
	for deltaEst < nw.ComputeParams().Delta {
		deltaEst *= 2
	}
	spec := dynamics.Spec{EpochLen: epochLen, Mobility: &dynamics.Mobility{Speed: 0.02, Radius: 0.7, Pause: 1}}
	scratch := NewAsyncScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := rng.New(uint64(i) + 1)
		nodes := make([]AsyncNode, nw.N())
		for u := range nodes {
			p, err := core.NewAsync(nw.Avail(topology.NodeID(u)), deltaEst, root.Split())
			if err != nil {
				b.Fatal(err)
			}
			nodes[u] = AsyncNode{Protocol: p, Drift: clock.Ideal}
		}
		world, err := dynamics.NewWorld(nw, spec, int(frames*frameLen/epochLen)+1, root.Split())
		if err != nil {
			b.Fatal(err)
		}
		res, err := RunAsync(AsyncConfig{
			Network: nw, Nodes: nodes,
			FrameLen: frameLen, MaxFrames: frames,
			Dynamics: world, Scratch: scratch,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.FrameBudget != frames {
			b.Fatalf("resolved %d frames, want the one-pass %d", res.FrameBudget, frames)
		}
	}
}

func BenchmarkAdmissibleSequence(b *testing.B) {
	w1, err := clock.NewRandomWalk(clock.MaxAsyncDrift, 0.03, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	w2, err := clock.NewRandomWalk(clock.MaxAsyncDrift, 0.03, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	a, err := clock.NewTimeline(0, 3, 3, w1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := clock.NewTimeline(1.7, 3, 3, w2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := AdmissibleSequence(a, c, 0, 500)
		if len(seq) == 0 {
			b.Fatal("empty sequence")
		}
	}
}
