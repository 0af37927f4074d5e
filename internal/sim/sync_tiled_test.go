package sim

// Differential sweep for the tiled parallel resolver (sync_tiled.go). The
// tiled path must be byte-identical to the single-threaded engine at
// matched seed across tile counts, worker counts, boundary-straddling
// radii and staggered starts — and must fall back to the single-threaded
// resolvers, deterministically, whenever a precondition fails (loss,
// dynamics, per-listener observers, non-concurrent steppers, tilings
// finer than the connection radius).

import (
	"fmt"
	"runtime"
	"testing"

	"m2hew/internal/dynamics"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// tiledNet builds a connected geometric network with a uniform-k channel
// assignment — the tiled path's home turf: every node has coordinates, so
// any grid tiling with cell side ≥ radius partitions it halo-cleanly.
func tiledNet(t *testing.T, seed uint64, n int, radius float64) *topology.Network {
	t.Helper()
	r := rng.New(seed)
	nw, err := topology.GeometricConnected(n, radius, r, 100)
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	if err := topology.AssignUniformK(nw, 6, 3, r); err != nil {
		t.Fatalf("channels: %v", err)
	}
	return nw
}

// randomGeoScenario is randomScenario's geometric twin: a connected
// geometric graph (nodes carry coordinates, so tilings exist) plus a
// scripted action schedule with the same 0/1/2+ transmitter density mix.
func randomGeoScenario(t *testing.T, r *rng.Source) (*topology.Network, [][]radio.Action, float64) {
	t.Helper()
	n := r.IntN(24) + 8
	radius := 0.25 + r.Float64()*0.35
	nw, err := topology.Geometric(n, radius, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignBernoulli(nw, r.IntN(4)+1, 0.6, r); err != nil {
		t.Fatal(err)
	}
	slots := r.IntN(30) + 5
	script := make([][]radio.Action, slots)
	for s := range script {
		script[s] = make([]radio.Action, n)
		for u := 0; u < n; u++ {
			avail := nw.Avail(topology.NodeID(u))
			switch r.IntN(5) {
			case 0:
				script[s][u] = radio.Action{Mode: radio.Quiet}
			case 1, 2:
				c, err := avail.Pick(r)
				if err != nil {
					t.Fatal(err)
				}
				script[s][u] = radio.Action{Mode: radio.Transmit, Channel: c}
			default:
				c, err := avail.Pick(r)
				if err != nil {
					t.Fatal(err)
				}
				script[s][u] = radio.Action{Mode: radio.Receive, Channel: c}
			}
		}
	}
	return nw, script, radius
}

// mustTiling builds a cols×rows tiling or fails the test.
func mustTiling(t *testing.T, nw *topology.Network, cols, rows int) *topology.Tiling {
	t.Helper()
	tl, err := topology.NewTiling(nw, cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// runTiledSeeded runs seeded staged protocols with the given tiled config
// knobs and returns the result plus the internals report.
func runTiledSeeded(t *testing.T, nw *topology.Network, seed uint64, tl *topology.Tiling, workers, maxSlots int) (*SyncResult, Internals) {
	t.Helper()
	rec := &InternalsRecorder{}
	res, err := RunSync(SyncConfig{
		Network:     nw,
		Protocols:   syncProtos(t, nw, seed),
		MaxSlots:    maxSlots,
		Tiling:      tl,
		TileWorkers: workers,
		Observer:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.Last
}

// TestSyncTiledMatchesSingleThreaded is the tentpole's byte-identity sweep:
// the same seeded protocols on the same network must produce identical
// results — completion slot, slot count, full coverage record — across the
// single-threaded engine and the tiled engine at tile counts 1, 2, 4 and
// 16 and worker counts 1, 2 and GOMAXPROCS.
func TestSyncTiledMatchesSingleThreaded(t *testing.T) {
	const maxSlots = 4000
	for _, tc := range []struct {
		seed   uint64
		n      int
		radius float64
	}{
		{1, 24, 0.45},
		{7, 40, 0.3},
		{23, 60, 0.26},
	} {
		nw := tiledNet(t, tc.seed, tc.n, tc.radius)
		base, baseIn := runTiledSeeded(t, nw, tc.seed+100, nil, 0, maxSlots)
		if baseIn.TiledSlots != 0 {
			t.Fatalf("seed %d: baseline run took the tiled path", tc.seed)
		}
		for _, grid := range [][2]int{{1, 1}, {2, 1}, {2, 2}, {4, 4}} {
			cols, rows := grid[0], grid[1]
			// Grids finer than the radius allows are still legal configs:
			// the run falls back (covered by TestSyncTiledFallsBack); here
			// we only sweep halo-clean grids.
			if 1.0/float64(cols) < tc.radius || 1.0/float64(rows) < tc.radius {
				continue
			}
			tl := mustTiling(t, nw, cols, rows)
			for _, workers := range []int{1, 2, 0} {
				label := fmt.Sprintf("seed %d grid %dx%d workers %d", tc.seed, cols, rows, workers)
				got, in := runTiledSeeded(t, nw, tc.seed+100, tl, workers, maxSlots)
				if in.TiledSlots != int64(got.SlotsSimulated) {
					t.Fatalf("%s: tiled path did not engage (TiledSlots %d of %d)",
						label, in.TiledSlots, got.SlotsSimulated)
				}
				if got.Complete != base.Complete || got.CompletionSlot != base.CompletionSlot ||
					got.SlotsSimulated != base.SlotsSimulated {
					t.Fatalf("%s: result (%v, %d, %d) vs baseline (%v, %d, %d)",
						label, got.Complete, got.CompletionSlot, got.SlotsSimulated,
						base.Complete, base.CompletionSlot, base.SlotsSimulated)
				}
				sameCoverage(t, label, base.Coverage, got.Coverage)
			}
		}
	}
}

// TestSyncTiledScriptedMatchesNaive pins the tiled resolver's deliveries to
// resolveSlotNaive on seeded random geometric scenarios — including graphs
// where links straddle tile boundaries, the case the halo exchange exists
// for. Tilings come from TilingByRadius, so cell side ≥ radius by
// construction.
func TestSyncTiledScriptedMatchesNaive(t *testing.T) {
	root := rng.New(20260811)
	engaged := 0
	for trial := 0; trial < 60; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("scenario%03d", trial), func(t *testing.T) {
			nw, script, radius := randomGeoScenario(t, r)
			want := perNode(nw.N(), naiveDeliveries(nw, script, nil))
			tl, err := topology.TilingByRadius(nw, radius, 16)
			if err != nil {
				t.Fatal(err)
			}
			rec := &InternalsRecorder{}
			got := runScripted(t, nw, script, SyncConfig{
				Tiling:      tl,
				TileWorkers: 1 + r.IntN(4),
				Observer:    rec,
			})
			comparePerNode(t, "tiled scripted", got, want)
			if rec.Last.TiledSlots == int64(len(script)) {
				engaged++
			}
		})
	}
	// The sweep is only meaningful if the tiled path actually ran for most
	// scenarios (a mask-budget or halo fallback on every trial would pass
	// vacuously).
	if engaged < 40 {
		t.Fatalf("tiled path engaged in only %d/60 scenarios", engaged)
	}
}

// TestSyncTiledStartSlotsMatchNaive covers staggered starts on the tiled
// path: quiet prefixes pause per-node decision streams identically to the
// serial engine.
func TestSyncTiledStartSlotsMatchNaive(t *testing.T) {
	root := rng.New(20260812)
	for trial := 0; trial < 30; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("scenario%03d", trial), func(t *testing.T) {
			nw, script, radius := randomGeoScenario(t, r)
			n := nw.N()
			starts := make([]int, n)
			maxStart := 0
			for u := range starts {
				starts[u] = r.IntN(6)
				if starts[u] > maxStart {
					maxStart = starts[u]
				}
			}
			slots := len(script) + maxStart
			global := make([][]radio.Action, slots)
			for s := range global {
				global[s] = make([]radio.Action, n)
				for u := 0; u < n; u++ {
					local := s - starts[u]
					switch {
					case local < 0:
						global[s][u] = radio.Action{Mode: radio.Quiet}
					case local < len(script):
						global[s][u] = script[local][u]
					default:
						global[s][u] = script[len(script)-1][u]
					}
				}
			}
			want := perNode(n, naiveDeliveries(nw, global, nil))
			tl, err := topology.TilingByRadius(nw, radius, 9)
			if err != nil {
				t.Fatal(err)
			}
			protos := make([]SyncProtocol, n)
			scripts := make([]*scriptSync, n)
			for u := 0; u < n; u++ {
				actions := make([]radio.Action, len(script))
				for s := range script {
					actions[s] = script[s][u]
				}
				scripts[u] = &scriptSync{actions: actions}
				protos[u] = scripts[u]
			}
			if _, err := RunSync(SyncConfig{
				Network:       nw,
				Protocols:     protos,
				StartSlots:    starts,
				MaxSlots:      slots,
				RunToMaxSlots: true,
				Tiling:        tl,
				TileWorkers:   2,
			}); err != nil {
				t.Fatal(err)
			}
			got := make([][]refDelivery, n)
			for u, s := range scripts {
				for _, msg := range s.delivered {
					got[u] = append(got[u], refDelivery{from: msg.From, to: topology.NodeID(u)})
				}
			}
			comparePerNode(t, "tiled start slots", got, want)
		})
	}
}

// TestSyncTiledFallsBack sweeps every precondition that must force the
// deterministic single-threaded fallback: a loss model, a dynamic world, a
// per-listener observer subscription, and a tiling finer than the
// connection radius (halo violation).
// In each case the run must succeed, report zero tiled slots, and — where a
// loss-free static baseline exists — match the non-tiled run exactly.
func TestSyncTiledFallsBack(t *testing.T) {
	const maxSlots = 4000
	nw := tiledNet(t, 5, 32, 0.4)
	tl := mustTiling(t, nw, 2, 2)
	base, _ := runTiledSeeded(t, nw, 77, nil, 0, maxSlots)

	t.Run("loss", func(t *testing.T) {
		run := func(tiling *topology.Tiling) (*SyncResult, Internals) {
			loss, err := NewLossModel(0.3, rng.New(9))
			if err != nil {
				t.Fatal(err)
			}
			rec := &InternalsRecorder{}
			res, err := RunSync(SyncConfig{
				Network:   nw,
				Protocols: syncProtos(t, nw, 77),
				MaxSlots:  maxSlots,
				Loss:      loss,
				Tiling:    tiling,
				Observer:  rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res, rec.Last
		}
		want, _ := run(nil)
		got, in := run(tl)
		if in.TiledSlots != 0 {
			t.Fatalf("lossy run took the tiled path (%d slots)", in.TiledSlots)
		}
		sameCoverage(t, "lossy fallback", want.Coverage, got.Coverage)
	})

	t.Run("dynamics", func(t *testing.T) {
		run := func(tiling *topology.Tiling) (*SyncResult, Internals) {
			world, err := dynamics.NewWorld(nw, dynamics.Spec{
				EpochLen: 200,
				Churn:    &dynamics.Churn{JoinFraction: 0.3, JoinWindow: 10, LeaveFraction: 0.2, LeaveWindow: 10},
			}, maxSlots/200, rng.New(13))
			if err != nil {
				t.Fatal(err)
			}
			rec := &InternalsRecorder{}
			res, err := RunSync(SyncConfig{
				Network:   nw,
				Protocols: syncProtos(t, nw, 77),
				MaxSlots:  maxSlots,
				Dynamics:  world,
				Tiling:    tiling,
				Observer:  rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res, rec.Last
		}
		want, _ := run(nil)
		got, in := run(tl)
		// Dynamic worlds fall back to the single-threaded word kernel
		// (per-epoch masks, all within budget here).
		if in.TiledSlots != 0 || in.KernelSlots != in.SlotsSimulated {
			t.Fatalf("dynamic run path attribution: %+v", in)
		}
		sameCoverage(t, "dynamics fallback", want.Coverage, got.Coverage)
	})

	t.Run("per-listener observer", func(t *testing.T) {
		rec := &InternalsRecorder{}
		res, err := RunSync(SyncConfig{
			Network:   nw,
			Protocols: syncProtos(t, nw, 77),
			MaxSlots:  maxSlots,
			Tiling:    tl,
			Observer:  MultiObserver(rec, ObserverFunc(func(Event) {})),
		})
		if err != nil {
			t.Fatal(err)
		}
		in := rec.Last
		if in.TiledSlots != 0 || in.KernelSlots != in.SlotsSimulated {
			t.Fatalf("full-observer run path attribution: %+v", in)
		}
		sameCoverage(t, "observer fallback", base.Coverage, res.Coverage)
	})

	t.Run("halo violation", func(t *testing.T) {
		// An 8×8 grid on a radius-0.4 graph puts candidates outside the 3×3
		// halo; TileMasks refuses and the engine falls back.
		fine := mustTiling(t, nw, 8, 8)
		got, in := runTiledSeeded(t, nw, 77, fine, 0, maxSlots)
		if in.TiledSlots != 0 {
			t.Fatalf("halo-violating tiling took the tiled path")
		}
		sameCoverage(t, "halo fallback", base.Coverage, got.Coverage)
	})
}

// TestSyncTiledInternals pins the tiled path's internals attribution: every
// slot lands on TiledSlots, decision rounds are attributed per (slot, tile
// with active nodes), and a multi-tile run on a connected graph performs
// halo exchanges.
func TestSyncTiledInternals(t *testing.T) {
	nw := tiledNet(t, 11, 48, 0.3)
	tl := mustTiling(t, nw, 3, 3)
	res, in := runTiledSeeded(t, nw, 42, tl, 0, 4000)
	slots := int64(res.SlotsSimulated)
	if in.TiledSlots != slots || in.BatchedSlots != 0 || in.KernelSlots != 0 || in.ScalarSlots != 0 {
		t.Fatalf("path attribution: %+v (slots %d)", in, slots)
	}
	if in.TiledSlots+in.KernelSlots+in.ScalarSlots != in.SlotsSimulated {
		t.Fatalf("path slots do not sum to SlotsSimulated: %+v", in)
	}
	// Uniform starts: every tile steps one round per slot, covering all its
	// nodes, so rounds = slots × tiles and round nodes = slots × n.
	if want := slots * int64(tl.Tiles()); in.StepperBatches != want {
		t.Fatalf("StepperBatches = %d, want %d", in.StepperBatches, want)
	}
	if want := slots * int64(nw.N()); in.StepperBatchNodes != want {
		t.Fatalf("StepperBatchNodes = %d, want %d", in.StepperBatchNodes, want)
	}
	if in.MaxStepperBatch <= 0 || in.MaxStepperBatch > int64(nw.N()) {
		t.Fatalf("MaxStepperBatch = %d", in.MaxStepperBatch)
	}
	if in.HaloExchanges <= 0 || in.HaloWordsCopied < in.HaloExchanges {
		t.Fatalf("halo tallies: exchanges %d, words %d", in.HaloExchanges, in.HaloWordsCopied)
	}
	// Single-tile runs have no neighbors to exchange with.
	_, in1 := runTiledSeeded(t, nw, 42, mustTiling(t, nw, 1, 1), 0, 4000)
	if in1.TiledSlots == 0 {
		t.Fatal("single-tile run did not take the tiled path")
	}
	if in1.HaloExchanges != 0 || in1.HaloWordsCopied != 0 {
		t.Fatalf("single-tile halo tallies: %+v", in1)
	}
}

// TestSyncTiledRaceStress drives parallel tiled runs at full worker count —
// the halo-barrier data-race canary for `go test -race ./internal/sim/`.
func TestSyncTiledRaceStress(t *testing.T) {
	nw := tiledNet(t, 3, 96, 0.22)
	tl, err := topology.TilingByRadius(nw, 0.22, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Tiles() < 4 {
		t.Fatalf("stress tiling has only %d tiles", tl.Tiles())
	}
	scratch := NewSyncScratch()
	base, _ := runTiledSeeded(t, nw, 8, nil, 0, 600)
	for i := 0; i < 4; i++ {
		res, err := RunSync(SyncConfig{
			Network:     nw,
			Protocols:   syncProtos(t, nw, 8),
			MaxSlots:    600,
			Tiling:      tl,
			TileWorkers: runtime.GOMAXPROCS(0),
			Scratch:     scratch,
		})
		if err != nil {
			t.Fatal(err)
		}
		sameCoverage(t, fmt.Sprintf("race stress run %d", i), base.Coverage, res.Coverage)
	}
}

// TestSyncTiledSteadyStateAllocs bounds the tiled path's per-run
// allocations on a warm scratch and pins them independent of the slot
// count: the per-slot machinery must live entirely off the per-tile
// scratch, leaving only fixed per-run setup (pool, closures, result,
// coverage, message sets).
func TestSyncTiledSteadyStateAllocs(t *testing.T) {
	r := rng.New(17)
	nw := tiledNet(t, 17, 64, 0.26)
	tl := mustTiling(t, nw, 3, 3)
	// Stateless fixed-action protocols: the measurement isolates the engine
	// from protocol-side discovery-state growth (which scales with coverage,
	// not with the engine's slot machinery).
	protos := make([]SyncProtocol, nw.N())
	for u := range protos {
		c, err := nw.Avail(topology.NodeID(u)).Pick(r)
		if err != nil {
			t.Fatal(err)
		}
		mode := radio.Receive
		if r.Bernoulli(0.4) {
			mode = radio.Transmit
		}
		protos[u] = &sinkSync{act: radio.Action{Mode: mode, Channel: c}}
	}
	scratch := NewSyncScratch()
	run := func(slots int) func() {
		return func() {
			if _, err := RunSync(SyncConfig{
				Network:       nw,
				Protocols:     protos,
				MaxSlots:      slots,
				RunToMaxSlots: true,
				Tiling:        tl,
				TileWorkers:   2,
				Scratch:       scratch,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(64)() // warm the scratch and the per-tile delivery queues
	short := testing.AllocsPerRun(5, run(16))
	long := testing.AllocsPerRun(5, run(64))
	if long > short+8 {
		t.Errorf("tiled path allocates per slot: %.0f allocs at 16 slots, %.0f at 64", short, long)
	}
	if short > 120 {
		t.Errorf("tiled path allocated %.0f objects per scratch-reusing run", short)
	}
}
