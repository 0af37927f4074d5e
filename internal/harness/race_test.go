package harness

// Dedicated -race stress for the pipeline driving real engines: SyncTrials
// and AsyncConfigs hand work to goroutines through the atomic work-stealing
// counter in Run. These tests drive many more trials than workers so the
// counter, the per-trial result slots and the pre-split rng sources all get
// contended, and they assert the pipeline stays deterministic: a parallel
// run must equal itself on rerun regardless of goroutine interleaving.

import (
	"runtime"
	"testing"

	"m2hew/internal/core"
	"m2hew/internal/rng"
	"m2hew/internal/sim"
	"m2hew/internal/topology"
)

// syncFixture builds a small network plus a factory, sized so one test run
// schedules far more trials than GOMAXPROCS workers.
func syncFixture(t *testing.T) (*topology.Network, SyncFactory) {
	t.Helper()
	nw, err := topology.Clique(8)
	if err != nil {
		t.Fatalf("building clique: %v", err)
	}
	if err := topology.AssignHomogeneous(nw, 4); err != nil {
		t.Fatalf("assigning channels: %v", err)
	}
	factory := func(u topology.NodeID, r *rng.Source) (sim.SyncProtocol, error) {
		return core.NewSyncUniform(nw.Avail(u), 8, r)
	}
	return nw, factory
}

func TestSyncTrialsWorkStealingRace(t *testing.T) {
	nw, factory := syncFixture(t)
	const trials = 64
	const maxSlots = 4000

	run := func(seed uint64) ([]float64, int) {
		t.Helper()
		results, err := SyncTrials(nw, factory, nil, maxSlots, trials, rng.New(seed))
		if err != nil {
			t.Fatalf("SyncTrials: %v", err)
		}
		slots, incomplete := CompletionSlots(results)
		return slots, incomplete
	}
	got, gotInc := run(11)

	// Same seed, same results — regardless of how the goroutines
	// interleaved on the work-stealing counter.
	again, againInc := run(11)
	if gotInc != againInc || len(got) != len(again) {
		t.Fatalf("reruns disagree: %d/%d complete vs %d/%d", len(got), gotInc, len(again), againInc)
	}
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("trial %d: completion %v vs %v across reruns", i, got[i], again[i])
		}
	}
	if len(got) == 0 {
		t.Fatalf("no trial completed within %d slots; fixture is miscalibrated", maxSlots)
	}
}

func TestAsyncConfigsWorkStealingRace(t *testing.T) {
	nw, err := topology.Clique(6)
	if err != nil {
		t.Fatalf("building clique: %v", err)
	}
	if err := topology.AssignHomogeneous(nw, 3); err != nil {
		t.Fatalf("assigning channels: %v", err)
	}
	root := rng.New(7)
	const configs = 48

	build := func(r *rng.Source) sim.AsyncConfig {
		t.Helper()
		nodes := make([]sim.AsyncNode, nw.N())
		for u := 0; u < nw.N(); u++ {
			p, err := core.NewAsync(nw.Avail(topology.NodeID(u)), 8, r.Split())
			if err != nil {
				t.Fatalf("building protocol: %v", err)
			}
			nodes[u] = sim.AsyncNode{Protocol: p, Start: float64(u) * 0.1}
		}
		return sim.AsyncConfig{Network: nw, Nodes: nodes, FrameLen: 1, MaxFrames: 600}
	}
	cfgs := make([]sim.AsyncConfig, configs)
	for i := range cfgs {
		cfgs[i] = build(root)
	}
	results, err := AsyncConfigs(cfgs)
	if err != nil {
		t.Fatalf("AsyncConfigs: %v", err)
	}
	if len(results) != configs {
		t.Fatalf("got %d results, want %d", len(results), configs)
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("config %d: nil result", i)
		}
		if !res.Complete {
			t.Fatalf("config %d incomplete within horizon; fixture is miscalibrated", i)
		}
	}
	// The pool must not have shrunk the machine's parallelism permanently
	// (a regression guard against leaking LockOSThread-style state).
	if runtime.GOMAXPROCS(0) < 1 {
		t.Fatal("GOMAXPROCS went non-positive")
	}
}

// TestScratchSeamWorkStealingRace stresses the per-worker scratch seam
// directly: far more trials than workers, each worker's Scratch reused
// across every trial it steals, alternating between both engines so the
// lazily-built sync and async scratches coexist on one Scratch. Under
// split-then-fork the scratch must be invisible: a rerun at the same seed
// must reproduce every completion figure exactly, whatever the
// interleaving.
func TestScratchSeamWorkStealingRace(t *testing.T) {
	nw, factory := syncFixture(t)
	const trials = 48
	run := func(seed uint64) []float64 {
		t.Helper()
		root := rng.New(seed)
		syncProtos := make([][]sim.SyncProtocol, trials)
		asyncNodes := make([][]sim.AsyncNode, trials)
		for i := 0; i < trials; i++ {
			if i%2 == 0 {
				protos := make([]sim.SyncProtocol, nw.N())
				for u := 0; u < nw.N(); u++ {
					p, err := factory(topology.NodeID(u), root.Split())
					if err != nil {
						t.Fatalf("building protocol: %v", err)
					}
					protos[u] = p
				}
				syncProtos[i] = protos
			} else {
				nodes := make([]sim.AsyncNode, nw.N())
				for u := 0; u < nw.N(); u++ {
					p, err := core.NewAsync(nw.Avail(topology.NodeID(u)), 8, root.Split())
					if err != nil {
						t.Fatalf("building protocol: %v", err)
					}
					nodes[u] = sim.AsyncNode{Protocol: p, Start: float64(u) * 0.1}
				}
				asyncNodes[i] = nodes
			}
		}
		out := make([]float64, trials)
		if err := RunScratch(trials, func(i int, sc *Scratch) error {
			if i%2 == 0 {
				res, err := sim.RunSync(sim.SyncConfig{
					Network: nw, Protocols: syncProtos[i], MaxSlots: 4000, Scratch: sc.Sync(),
				})
				if err != nil {
					return err
				}
				out[i] = float64(res.CompletionSlot)
				return nil
			}
			res, err := sim.RunAsync(sim.AsyncConfig{
				Network: nw, Nodes: asyncNodes[i], FrameLen: 1, MaxFrames: 600, Scratch: sc.Async(),
			})
			if err != nil {
				return err
			}
			out[i] = res.CompletionTime
			return nil
		}); err != nil {
			t.Fatalf("RunScratch: %v", err)
		}
		return out
	}
	got := run(33)
	again := run(33)
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("trial %d: completion %v vs %v across reruns", i, got[i], again[i])
		}
	}
}

func TestAsyncTrialsMatchesAsyncConfigs(t *testing.T) {
	nw, err := topology.Clique(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 2); err != nil {
		t.Fatal(err)
	}
	const trials = 12
	build := func(root *rng.Source) func(int) (sim.AsyncConfig, error) {
		return func(int) (sim.AsyncConfig, error) {
			nodes := make([]sim.AsyncNode, nw.N())
			for u := 0; u < nw.N(); u++ {
				p, err := core.NewAsync(nw.Avail(topology.NodeID(u)), 8, root.Split())
				if err != nil {
					return sim.AsyncConfig{}, err
				}
				nodes[u] = sim.AsyncNode{Protocol: p, Start: float64(u) * 0.2}
			}
			return sim.AsyncConfig{Network: nw, Nodes: nodes, FrameLen: 1, MaxFrames: 500}, nil
		}
	}

	viaTrials, err := AsyncTrials(trials, build(rng.New(99)))
	if err != nil {
		t.Fatal(err)
	}
	rootB := rng.New(99)
	cfgs := make([]sim.AsyncConfig, trials)
	for i := range cfgs {
		cfgs[i], err = build(rootB)(i)
		if err != nil {
			t.Fatal(err)
		}
	}
	viaConfigs, err := AsyncConfigs(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range viaTrials {
		a, b := viaTrials[i], viaConfigs[i]
		if a.Complete != b.Complete || a.CompletionTime != b.CompletionTime {
			t.Fatalf("trial %d: AsyncTrials %+v vs AsyncConfigs %+v", i,
				[2]any{a.Complete, a.CompletionTime}, [2]any{b.Complete, b.CompletionTime})
		}
	}
}
