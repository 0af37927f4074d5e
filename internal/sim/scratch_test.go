package sim

// Differential tests for trial-scoped scratch reuse: a scratch carried
// across consecutive runs — different networks, horizons, and seeds — must
// leave every observable output byte-identical to fresh-allocation runs.
// The allocation guards pin the steady state down so a hot-path regression
// (a per-run allocation sneaking back in) fails the suite rather than just
// drifting the benchmarks.

import (
	"fmt"
	"strings"
	"testing"

	"m2hew/internal/clock"
	"m2hew/internal/core"
	"m2hew/internal/dynamics"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// scratchTestNetwork builds a small connected CR-ish network.
func scratchTestNetwork(t *testing.T, n int, radius float64, seed uint64) *topology.Network {
	t.Helper()
	r := rng.New(seed)
	nw, err := topology.GeometricConnected(n, radius, r, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignUniformK(nw, 6, 3, r); err != nil {
		t.Fatal(err)
	}
	return nw
}

// syncFingerprint runs the synchronous engine once and serializes every
// observable output: the full delivery stream, completion state, and the
// coverage curve.
func syncFingerprint(t *testing.T, nw *topology.Network, seed uint64, maxSlots int, scratch *SyncScratch) string {
	t.Helper()
	root := rng.New(seed)
	protos := make([]SyncProtocol, nw.N())
	for u := 0; u < nw.N(); u++ {
		p, err := core.NewSyncUniform(nw.Avail(topology.NodeID(u)), 4, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		protos[u] = p
	}
	var sb strings.Builder
	res, err := RunSync(SyncConfig{
		Network:       nw,
		Protocols:     protos,
		MaxSlots:      maxSlots,
		RunToMaxSlots: true,
		Scratch:       scratch,
		Observer: ObserverFunc(func(e Event) {
			if e.Kind == EventDeliver {
				fmt.Fprintf(&sb, "%v %d>%d ch%d\n", e.Time, e.From, e.To, e.Channel)
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "complete=%v slot=%d slots=%d curve=%v\n",
		res.Complete, res.CompletionSlot, res.SlotsSimulated, res.Coverage.Curve())
	return sb.String()
}

// asyncTrial is one asynchronous run of the scratch-reuse tests: seed draws
// the protocols and drifts, then the dynamic world and loss stream when
// spec or loss is set.
type asyncTrial struct {
	nw        *topology.Network
	seed      uint64
	maxFrames int
	spec      *dynamics.Spec // nil: static network
	loss      float64        // 0: reliable channels
}

// asyncFingerprint does the same for the asynchronous engine, stopping at
// completion or run to MaxFrames, adding each listening frame's collected
// and delivered counts and MinFullFrames.
func asyncFingerprint(t *testing.T, runToMax bool, tr asyncTrial, scratch *AsyncScratch) string {
	t.Helper()
	root := rng.New(tr.seed)
	nodes := benchAsyncNodesT(t, tr.nw, 4, root)
	var world *dynamics.World
	if tr.spec != nil {
		horizon := int(float64(tr.maxFrames)*3*1.1/tr.spec.EpochLen) + 2
		var err error
		if world, err = dynamics.NewWorld(tr.nw, *tr.spec, horizon, root.Split()); err != nil {
			t.Fatal(err)
		}
	}
	var loss *LossModel
	if tr.loss > 0 {
		var err error
		if loss, err = NewLossModel(tr.loss, root.Split()); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	res, err := RunAsync(AsyncConfig{
		Network:        tr.nw,
		Nodes:          nodes,
		FrameLen:       3,
		MaxFrames:      tr.maxFrames,
		RunToMaxFrames: runToMax,
		Loss:           loss,
		Dynamics:       world,
		Scratch:        scratch,
		Observer: ObserverFunc(func(e Event) {
			switch e.Kind {
			case EventDeliver:
				fmt.Fprintf(&sb, "%v %d>%d ch%d\n", e.Time, e.From, e.To, e.Channel)
			case EventFrameResolve:
				fmt.Fprintf(&sb, "resolve %d/%d %d %d\n", e.Node, e.Slot, e.Collected, e.Delivered)
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "complete=%v at=%v ts=%v frames=%d curve=%v\n",
		res.Complete, res.CompletionTime, res.Ts, res.MinFullFrames, res.Coverage.Curve())
	return sb.String()
}

// benchAsyncNodesT mirrors benchAsyncNodes for tests, drawing everything
// from the supplied source so fresh and scratch variants see identical
// protocol streams.
func benchAsyncNodesT(t *testing.T, nw *topology.Network, deltaEst int, root *rng.Source) []AsyncNode {
	t.Helper()
	nodes := make([]AsyncNode, nw.N())
	for u := 0; u < nw.N(); u++ {
		p, err := core.NewAsync(nw.Avail(topology.NodeID(u)), deltaEst, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		w, err := clock.NewRandomWalk(clock.MaxAsyncDrift, 0.02, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		nodes[u] = AsyncNode{Protocol: p, Start: root.Float64() * 6, Drift: w}
	}
	return nodes
}

// TestRunSyncScratchMatchesFresh interleaves networks of different sizes
// (revisiting the first pointer to hit the network-keyed cache) and checks
// each scratch-reuse run against its fresh-allocation twin.
func TestRunSyncScratchMatchesFresh(t *testing.T) {
	nwA := scratchTestNetwork(t, 12, 0.45, 1)
	nwB := scratchTestNetwork(t, 7, 0.55, 2)
	trials := []struct {
		nw       *topology.Network
		seed     uint64
		maxSlots int
	}{
		{nwA, 100, 400}, {nwB, 101, 250}, {nwA, 102, 400}, {nwB, 103, 100},
	}
	scratch := NewSyncScratch()
	for i, tr := range trials {
		fresh := syncFingerprint(t, tr.nw, tr.seed, tr.maxSlots, nil)
		reused := syncFingerprint(t, tr.nw, tr.seed, tr.maxSlots, scratch)
		if fresh != reused {
			t.Fatalf("trial %d: scratch-reuse run diverged from fresh run\nfresh:\n%s\nreused:\n%s", i, fresh, reused)
		}
	}
}

// TestRunAsyncScratchMatchesFresh covers the asynchronous engine, stopping
// at completion and run to MaxFrames, each reusing one scratch across the
// trials: its timelines, random-walk rate
// memos, frame index, bucket table and mask pools carry over from runs of
// different n, worlds and frame budgets. The churn and mobility trials,
// some lossy, resolve each listening frame against its epoch's compiled
// candidate masks.
func TestRunAsyncScratchMatchesFresh(t *testing.T) {
	nwA := scratchTestNetwork(t, 10, 0.5, 3)
	nwB := scratchTestNetwork(t, 6, 0.6, 4)
	churn := &dynamics.Spec{
		EpochLen: 45,
		Churn:    &dynamics.Churn{JoinFraction: 0.4, JoinWindow: 4, LeaveFraction: 0.3, LeaveWindow: 6},
		Primary:  &dynamics.Primary{Events: 3, Duration: 3, Radius: 0.4},
	}
	mobility := &dynamics.Spec{
		EpochLen: 30,
		Mobility: &dynamics.Mobility{Speed: 0.1, Radius: 0.3, Pause: 1},
		Primary:  &dynamics.Primary{Events: 2, Duration: 4, Radius: 0.3},
	}
	trials := []asyncTrial{
		{nwA, 200, 120, nil, 0}, {nwB, 201, 80, nil, 0}, {nwA, 202, 120, nil, 0}, {nwB, 203, 40, nil, 0},
		{nwA, 300, 150, churn, 0}, {nwB, 301, 60, mobility, 0.2}, {nwA, 302, 90, churn, 0.2},
		{nwB, 303, 150, mobility, 0}, {nwA, 304, 50, mobility, 0.2}, {nwB, 305, 120, churn, 0},
	}
	for _, runToMax := range []bool{false, true} {
		scratch := NewAsyncScratch()
		for i, tr := range trials {
			fresh := asyncFingerprint(t, runToMax, tr, nil)
			reused := asyncFingerprint(t, runToMax, tr, scratch)
			if fresh != reused {
				t.Fatalf("runToMax=%v trial %d: scratch-reuse run diverged from fresh run\nfresh:\n%s\nreused:\n%s",
					runToMax, i, fresh, reused)
			}
		}
	}
}

// TestRunSyncSteadyStateAllocs pins the synchronous engine's steady state:
// with a warm scratch, a run may allocate only its result objects, far
// below the fresh path's per-run tables and buffers.
func TestRunSyncSteadyStateAllocs(t *testing.T) {
	nw := scratchTestNetwork(t, 20, 0.4, 5)
	root := rng.New(9)
	protos := make([]SyncProtocol, nw.N())
	for u := 0; u < nw.N(); u++ {
		p, err := core.NewSyncUniform(nw.Avail(topology.NodeID(u)), 4, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		protos[u] = p
	}
	run := func(scratch *SyncScratch) {
		if _, err := RunSync(SyncConfig{
			Network:       nw,
			Protocols:     protos,
			MaxSlots:      300,
			RunToMaxSlots: true,
			Scratch:       scratch,
		}); err != nil {
			t.Fatal(err)
		}
	}
	scratch := NewSyncScratch()
	run(scratch) // warm
	steady := testing.AllocsPerRun(5, func() { run(scratch) })
	fresh := testing.AllocsPerRun(5, func() { run(nil) })
	t.Logf("RunSync allocs/run: steady=%.0f fresh=%.0f", steady, fresh)
	// What remains at steady state is the per-run result (coverage record
	// and friends); the engine's own tables and buffers must be gone. The
	// ceiling has headroom over the measured ~220 but fails loudly if a
	// per-slot or per-node allocation sneaks back into the hot path.
	if steady*2 > fresh {
		t.Fatalf("steady-state RunSync allocates %.0f/run, fresh %.0f/run; want at least 2x reduction", steady, fresh)
	}
	if steady > 350 {
		t.Fatalf("steady-state RunSync allocates %.0f/run; ceiling 350", steady)
	}
}

// TestRunAsyncSteadyStateAllocs pins the asynchronous engine's steady state
// under the trial-loop configuration (a warm scratch). A run consumes its
// nodes, so each run takes a node set built before the measurement.
func TestRunAsyncSteadyStateAllocs(t *testing.T) {
	nw := scratchTestNetwork(t, 12, 0.45, 6)
	root := rng.New(10)
	var sets [][]AsyncNode
	for range 1 + 2*6 { // the warm-up, then AllocsPerRun's 1+5 runs twice
		sets = append(sets, benchAsyncNodesT(t, nw, 4, root))
	}
	run := func(scratch *AsyncScratch) {
		nodes := sets[0]
		sets = sets[1:]
		if _, err := RunAsync(AsyncConfig{
			Network:   nw,
			Nodes:     nodes,
			FrameLen:  3,
			MaxFrames: 150,
			Scratch:   scratch,
		}); err != nil {
			t.Fatal(err)
		}
	}
	scratch := NewAsyncScratch()
	run(scratch) // warm
	steady := testing.AllocsPerRun(5, func() { run(scratch) })
	fresh := testing.AllocsPerRun(5, func() { run(nil) })
	t.Logf("RunAsync allocs/run: steady=%.0f fresh=%.0f", steady, fresh)
	// Measured ~16 steady vs ~223 fresh: timelines, rate memos, frame
	// tables, resolver buffers and the frame queue all reuse; what remains
	// is the per-run result and each fresh protocol's neighbor-table slab
	// (12 nodes). The benchmark config (n=30, 800 frames), where timeline
	// slots dominate, shows the full >5x bytes/op reduction.
	if steady*2 > fresh {
		t.Fatalf("steady-state RunAsync allocates %.0f/run, fresh %.0f/run; want at least 2x reduction", steady, fresh)
	}
	if steady > 150 {
		t.Fatalf("steady-state RunAsync allocates %.0f/run; ceiling 150", steady)
	}
}

// TestSyncScratchCoverageSurvivesNetworkSwitch pins the shared coverage
// target contract: every run's Coverage reads the scratch's per-network
// target index, so a scratch switching networks must build a new index and
// never rewrite the old one — a Coverage returned earlier keeps describing
// its own run after the scratch has run a different network.
func TestSyncScratchCoverageSurvivesNetworkSwitch(t *testing.T) {
	nwA := scratchTestNetwork(t, 24, 0.4, 21)
	nwB := scratchTestNetwork(t, 31, 0.35, 22)
	scratch := NewSyncScratch()
	run := func(nw *topology.Network, seed uint64) *SyncResult {
		root := rng.New(seed)
		protos := make([]SyncProtocol, nw.N())
		for u := range protos {
			p, err := core.NewSyncUniform(nw.Avail(topology.NodeID(u)), 4, root.Split())
			if err != nil {
				t.Fatal(err)
			}
			protos[u] = p
		}
		res, err := RunSync(SyncConfig{Network: nw, Protocols: protos, MaxSlots: 60, Scratch: scratch})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	describe := func(res *SyncResult, nw *topology.Network) string {
		var sb strings.Builder
		cov := res.Coverage
		fmt.Fprintf(&sb, "%s uncovered=%v latencies=%v\n", cov, cov.Uncovered(), cov.Latencies())
		for _, l := range nw.DiscoverableLinks() {
			at, ok := cov.FirstCovered(l)
			fmt.Fprintf(&sb, "%v %v %v\n", l, at, ok)
		}
		return sb.String()
	}

	resA := run(nwA, 3)
	before := describe(resA, nwA)
	targetA := scratch.target
	run(nwB, 4)
	if scratch.target == targetA {
		t.Fatal("the scratch reused the old network's target index for a new network")
	}
	run(nwB, 5)
	if after := describe(resA, nwA); after != before {
		t.Fatalf("an earlier Coverage changed after the scratch ran another network:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestNetworkTablesAllocsConstant pins the cold derived-table build —
// candidates, shared message sets, coverage target and compiled candidate
// masks, the cache both engines' scratches embed — to a constant number of
// allocations: the same count at n=500 and n=5000, so the build cannot
// grow per-node or per-edge allocations again.
func TestNetworkTablesAllocsConstant(t *testing.T) {
	allocs := func(rows int) float64 {
		nw, err := topology.Grid(rows, 50)
		if err != nil {
			t.Fatal(err)
		}
		if err := topology.AssignUniformK(nw, 8, 4, rng.New(uint64(rows))); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			var tables netTables
			tables.load(nw)
			if len(tables.candRows().ents) == 0 {
				t.Fatal("no candidate masks compiled")
			}
		})
	}
	cold500, cold5000 := allocs(10), allocs(100)
	t.Logf("cold network-table allocs: %v/%v (n=500/5000)", cold500, cold5000)
	if cold500 != cold5000 {
		t.Fatalf("cold network-table allocations grow with n: %v -> %v (n=500 -> 5000)", cold500, cold5000)
	}
}
