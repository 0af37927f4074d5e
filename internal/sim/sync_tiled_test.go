package sim

// Differential sweep for the parallel (tiled) slot path (sync_tiled.go).
// The parallel path must be byte-identical to the single tile at matched
// seed across tilings, worker counts, chunk boundaries and staggered
// starts, on any network, tilings finer than the connection radius and
// coordinate-free networks included — and must fall back to the single
// tile, deterministically, whenever its gate fails (loss, dynamics,
// per-listener observers).

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/core"
	"m2hew/internal/dynamics"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// tiledNet builds a connected geometric network with a uniform-k channel
// assignment, on which TilingByRadius and NewTiling build grids over the
// node coordinates.
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

// TestSyncTiledMatchesSingleThreaded is the byte-identity sweep: the same
// seeded protocols on the same network must produce identical results —
// completion slot, slot count, full coverage record — across the single
// tile and the parallel path at tile counts 1, 2, 4 and 16 and worker
// counts 1, 2 and GOMAXPROCS. The small networks run as one NodeID chunk;
// the 1100-node one splits into several at every worker count.
func TestSyncTiledMatchesSingleThreaded(t *testing.T) {
	for _, tc := range []struct {
		seed     uint64
		n        int
		radius   float64
		maxSlots int
	}{
		{1, 24, 0.45, 4000},
		{7, 40, 0.3, 4000},
		{23, 60, 0.26, 4000},
		{31, 1100, 0.07, 300},
	} {
		nw := tiledNet(t, tc.seed, tc.n, tc.radius)
		if tc.n > 1000 && chunkCount(tc.n, 1) < 4 {
			t.Fatalf("%d nodes split into %d chunks", tc.n, chunkCount(tc.n, 1))
		}
		maxSlots := tc.maxSlots
		base, baseIn := runTiledSeeded(t, nw, tc.seed+100, nil, 0, maxSlots)
		if baseIn.TiledSlots != 0 {
			t.Fatalf("seed %d: baseline run took the tiled path", tc.seed)
		}
		for _, grid := range [][2]int{{1, 1}, {2, 1}, {2, 2}, {4, 4}} {
			cols, rows := grid[0], grid[1]
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

// TestSyncTiledScriptedMatchesNaive pins the parallel path's deliveries to
// resolveSlotNaive on seeded random geometric scenarios, with tilings from
// TilingByRadius and random worker counts.
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
	// The sweep is only meaningful if the parallel path actually ran: a
	// fallback would pass vacuously.
	if engaged != 60 {
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
// deterministic single-threaded fallback: a loss model, a dynamic world
// and a per-listener observer subscription.
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

}

// TestSyncTiledInternals pins the tiled path's internals attribution:
// every slot lands on TiledSlots, decision rounds are counted one per
// slot as on the single tile, whatever the tiling, and the halo counters
// stay zero.
func TestSyncTiledInternals(t *testing.T) {
	nw := tiledNet(t, 11, 48, 0.3)
	for _, grid := range []int{1, 3} {
		tl := mustTiling(t, nw, grid, grid)
		res, in := runTiledSeeded(t, nw, 42, tl, 0, 4000)
		slots := int64(res.SlotsSimulated)
		if in.TiledSlots != slots || in.BatchedSlots != 0 || in.KernelSlots != 0 || in.ScalarSlots != 0 {
			t.Fatalf("%dx%d: path attribution: %+v (slots %d)", grid, grid, in, slots)
		}
		// Uniform starts: one round per slot covering all nodes, so round
		// nodes = slots × n.
		if in.StepperBatches != slots {
			t.Fatalf("%dx%d: StepperBatches = %d, want %d", grid, grid, in.StepperBatches, slots)
		}
		if want := slots * int64(nw.N()); in.StepperBatchNodes != want || in.MaxStepperBatch != int64(nw.N()) {
			t.Fatalf("%dx%d: StepperBatchNodes = %d, MaxStepperBatch = %d, want %d and %d", grid, grid, in.StepperBatchNodes, in.MaxStepperBatch, want, nw.N())
		}
		if in.HaloExchanges != 0 || in.HaloWordsCopied != 0 {
			t.Fatalf("%dx%d: halo tallies: %+v", grid, grid, in)
		}
	}
}

// TestSyncTiledRaceStress drives parallel runs at full worker count — the
// round-barrier data-race canary for `go test -race ./internal/sim/`.
func TestSyncTiledRaceStress(t *testing.T) {
	nw := tiledNet(t, 3, 1000, 0.07)
	tl, err := topology.TilingByRadius(nw, 0.07, 16)
	if err != nil {
		t.Fatal(err)
	}
	if workers := runtime.GOMAXPROCS(0); workers > 1 && chunkCount(nw.N(), workers) < 2 {
		t.Fatalf("stress network splits into %d chunk at %d workers", chunkCount(nw.N(), workers), workers)
	}
	scratch := NewSyncScratch()
	base, _ := runTiledSeeded(t, nw, 8, nil, 0, 400)
	for i := 0; i < 4; i++ {
		res, err := RunSync(SyncConfig{
			Network:     nw,
			Protocols:   syncProtos(t, nw, 8),
			MaxSlots:    400,
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
// count: the per-slot machinery must live entirely off the per-chunk
// scratch, leaving only fixed per-run setup (pool, closures, result,
// coverage, message sets).
func TestSyncTiledSteadyStateAllocs(t *testing.T) {
	r := rng.New(17)
	nw := tiledNet(t, 17, 600, 0.09)
	tl := mustTiling(t, nw, 3, 3)
	if chunkCount(nw.N(), 2) < 2 {
		t.Fatal("the measured runs would not start a pool")
	}
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
	run(64)() // warm the scratch and the per-chunk listener lists
	short := testing.AllocsPerRun(5, run(16))
	long := testing.AllocsPerRun(5, run(64))
	if long > short+8 {
		t.Errorf("tiled path allocates per slot: %.0f allocs at 16 slots, %.0f at 64", short, long)
	}
	if short > 120 {
		t.Errorf("tiled path allocated %.0f objects per scratch-reusing run", short)
	}
}

// callRec is one engine call into a node's protocol: a Step with its local
// slot and returned action, or a Deliver with its sender and a copy of the
// borrowed heard-list.
type callRec struct {
	deliver bool
	local   int
	act     radio.Action
	from    topology.NodeID
	heard   []topology.NodeID
}

// logSync wraps a protocol and records every call the engine makes into
// it, in call order.
type logSync struct {
	inner SyncProtocol
	log   []callRec
}

func (l *logSync) Step(local int) radio.Action {
	a := l.inner.Step(local)
	l.log = append(l.log, callRec{local: local, act: a})
	return a
}

func (l *logSync) Deliver(msg radio.Message) {
	l.log = append(l.log, callRec{deliver: true, from: msg.From, heard: slices.Clone(msg.Heard)})
	l.inner.Deliver(msg)
}

// logHeardSync is a logSync of a HeardReporter; a separate type so logs of
// non-reporters do not become reporters.
type logHeardSync struct {
	*logSync
	HeardReporter
}

// logProtos builds Algorithm 3 for every node of nw — wrapped with the
// acknowledgment extension when ack is set, so deliveries carry heard-lists
// — behind call-logging wrappers.
func logProtos(t *testing.T, nw *topology.Network, seed uint64, ack bool) ([]SyncProtocol, []*logSync) {
	t.Helper()
	root := rng.New(seed)
	protos := make([]SyncProtocol, nw.N())
	logs := make([]*logSync, nw.N())
	for u := range protos {
		p, err := core.NewSyncUniform(nw.Avail(topology.NodeID(u)), 16, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		logs[u] = &logSync{inner: p}
		protos[u] = logs[u]
		if ack {
			a, err := core.NewAcknowledging(topology.NodeID(u), p)
			if err != nil {
				t.Fatal(err)
			}
			logs[u].inner = a
			protos[u] = logHeardSync{logs[u], a}
		}
	}
	return protos, logs
}

// callLogNet is a spatially numbered geometric network of 4000 nodes with
// a radius-matched tiling: several NodeID chunks per worker at every
// worker count.
func callLogNet(t *testing.T) (*topology.Network, *topology.Tiling) {
	t.Helper()
	const n, radius = 4000, 0.03
	r := rng.New(4242)
	nw, err := topology.GeometricCSR(n, radius, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignUniformK(nw, 6, 3, r); err != nil {
		t.Fatal(err)
	}
	tl, err := topology.TilingByRadius(nw, radius, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return nw, tl
}

// TestSyncTiledCallLogMatchesSingleTile pins the parallel path to the
// single tile call by call: every node must see the identical sequence of
// Step(local) and Deliver(from, Heard) calls — the interleaving adaptive
// protocols depend on, not only the coverage it produces — at worker
// counts 1, 2 and GOMAXPROCS, with and without staggered starts, for plain
// and heard-list-carrying protocols.
func TestSyncTiledCallLogMatchesSingleTile(t *testing.T) {
	const slots = 24
	nw, tl := callLogNet(t)
	r := rng.New(99)
	starts := make([]int, nw.N())
	for u := range starts {
		starts[u] = r.IntN(8)
	}
	for _, ack := range []bool{false, true} {
		for _, staggered := range []bool{false, true} {
			var startSlots []int
			if staggered {
				startSlots = starts
			}
			run := func(tiling *topology.Tiling, workers int) ([]*logSync, Internals) {
				protos, logs := logProtos(t, nw, 31, ack)
				rec := &InternalsRecorder{}
				if _, err := RunSync(SyncConfig{
					Network:       nw,
					Protocols:     protos,
					StartSlots:    startSlots,
					MaxSlots:      slots,
					RunToMaxSlots: true,
					Tiling:        tiling,
					TileWorkers:   workers,
					Observer:      rec,
				}); err != nil {
					t.Fatal(err)
				}
				return logs, rec.Last
			}
			want, _ := run(nil, 0)
			delivered := 0
			for _, l := range want {
				for _, c := range l.log {
					if c.deliver {
						delivered++
					}
				}
			}
			if delivered == 0 {
				t.Fatal("single-tile run delivered nothing")
			}
			for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				label := fmt.Sprintf("ack %v staggered %v workers %d", ack, staggered, workers)
				got, in := run(tl, workers)
				if in.TiledSlots != slots {
					t.Fatalf("%s: %d of %d slots on the parallel path", label, in.TiledSlots, slots)
				}
				for u := range want {
					if !slices.EqualFunc(got[u].log, want[u].log, func(a, b callRec) bool {
						return a.deliver == b.deliver && a.local == b.local && a.act == b.act &&
							a.from == b.from && slices.Equal(a.heard, b.heard)
					}) {
						t.Fatalf("%s: node %d call log differs:\n got %+v\nwant %+v", label, u, got[u].log, want[u].log)
					}
				}
			}
		}
	}
}

// faultSync wraps a protocol with one scripted bad decision: at local slot
// at it returns bad instead of stepping.
type faultSync struct {
	SyncProtocol
	at  int
	bad radio.Action
}

func (f *faultSync) Step(local int) radio.Action {
	if local == f.at {
		return f.bad
	}
	return f.SyncProtocol.Step(local)
}

// TestSyncTiledErrorMatchesSingleTile pins parallel-path error reporting to
// the single tile's: two nodes in different NodeID chunks fail in the same slot, and the run must report the lower one with
// the identical message at every worker count. A following run on the same
// scratch must succeed and match a fresh run: the failed slot leaves no
// state behind.
func TestSyncTiledErrorMatchesSingleTile(t *testing.T) {
	const slots, failAt = 12, 5
	nw, tl := callLogNet(t)
	lo, hi := topology.NodeID(37), topology.NodeID(nw.N()-41)
	if _, first := chunkBounds(0, chunkCount(nw.N(), 1), nw.N()); hi < first {
		t.Fatalf("nodes %d and %d share the first NodeID chunk [0, %d)", lo, hi, first)
	}
	outOfSet := func(u topology.NodeID) radio.Action {
		for c := channel.ID(0); ; c++ {
			if !nw.Avail(u).Contains(c) {
				return radio.Action{Mode: radio.Receive, Channel: c}
			}
		}
	}
	cases := []struct {
		name         string
		badLo, badHi radio.Action
	}{
		{"out-of-set channels", outOfSet(lo), radio.Action{Mode: radio.Transmit, Channel: outOfSet(hi).Channel}},
		{"undefined mode", radio.Action{Mode: radio.Mode(9)}, outOfSet(hi)},
	}
	wantSub := fmt.Sprintf("node %d slot %d", lo, failAt)
	protos := func(badLo, badHi radio.Action) []SyncProtocol {
		ps := syncProtos(t, nw, 5)
		if badLo.Mode != 0 {
			ps[lo] = &faultSync{SyncProtocol: ps[lo], at: failAt, bad: badLo}
			ps[hi] = &faultSync{SyncProtocol: ps[hi], at: failAt, bad: badHi}
		}
		return ps
	}
	fresh, err := RunSync(SyncConfig{Network: nw, Protocols: protos(radio.Action{}, radio.Action{}), MaxSlots: slots, RunToMaxSlots: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		run := func(tiling *topology.Tiling, workers int, sc *SyncScratch) error {
			_, err := RunSync(SyncConfig{
				Network: nw, Protocols: protos(tc.badLo, tc.badHi), MaxSlots: slots, RunToMaxSlots: true,
				Tiling: tiling, TileWorkers: workers, Scratch: sc,
			})
			return err
		}
		want := run(nil, 0, nil)
		if want == nil || !strings.Contains(want.Error(), wantSub) {
			t.Fatalf("%s: single-tile error %v, want one naming %q", tc.name, want, wantSub)
		}
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			label := fmt.Sprintf("%s workers %d", tc.name, workers)
			sc := NewSyncScratch()
			got := run(tl, workers, sc)
			if got == nil || got.Error() != want.Error() {
				t.Fatalf("%s: parallel-path error %v, want %v", label, got, want)
			}
			rec := &InternalsRecorder{}
			res, err := RunSync(SyncConfig{
				Network: nw, Protocols: protos(radio.Action{}, radio.Action{}), MaxSlots: slots, RunToMaxSlots: true,
				Tiling: tl, TileWorkers: workers, Scratch: sc, Observer: rec,
			})
			if err != nil {
				t.Fatalf("%s: run after the error: %v", label, err)
			}
			if rec.Last.TiledSlots != slots {
				t.Fatalf("%s: run after the error left the parallel path: %+v", label, rec.Last)
			}
			sameCoverage(t, label+" (run after the error)", fresh.Coverage, res.Coverage)
		}
	}
}

// TestSyncTiledCoverageShardWords pins the parallel run's coverage apply
// where two NodeID chunks meet. Coverage positions number links by
// listener, so a chunk's links form one position range, and each chunk
// writes the 64-position words that begin in its range; a delivery in the
// word its range begins inside is deferred to the caller. On a 4000-node
// network whose chunk starts fall mid-word in position space, at workers 1, 2
// and GOMAXPROCS, the coverage after every slot — FirstCovered of every
// link, Remaining and Curve — must equal the single tile's, and some
// delivery must have landed in a deferred word.
func TestSyncTiledCoverageShardWords(t *testing.T) {
	const (
		n      = 4000
		radius = 0.035
		slots  = 24
	)
	nw := tiledNet(t, 5, n, radius)
	tl, err := topology.TilingByRadius(nw, radius, 64)
	if err != nil {
		t.Fatal(err)
	}
	cands := nw.InboundCandidates()
	// rowStart[u] is listener u's first coverage position; links lists
	// every target link.
	rowStart := make([]int, n+1)
	var links []topology.Link
	for u, list := range cands {
		rowStart[u+1] = rowStart[u] + len(list)
		for _, c := range list {
			links = append(links, topology.Link{From: c.From, To: topology.NodeID(u)})
		}
	}
	// A seeded script: each slot, a node is quiet with probability 1/5 and
	// otherwise transmits or listens, evenly, on a random channel of its own.
	r := rng.New(2605)
	script := make([][]radio.Action, n)
	for u := range script {
		avail := nw.Avail(topology.NodeID(u))
		script[u] = make([]radio.Action, slots)
		for s := range script[u] {
			c, err := avail.Pick(r)
			if err != nil {
				t.Fatal(err)
			}
			switch r.IntN(5) {
			case 0:
				script[u][s] = radio.Action{Mode: radio.Quiet}
			case 1, 2:
				script[u][s] = radio.Action{Mode: radio.Transmit, Channel: c}
			default:
				script[u][s] = radio.Action{Mode: radio.Receive, Channel: c}
			}
		}
	}
	run := func(sc *SyncScratch, tiling *topology.Tiling, workers, maxSlots int) (*SyncResult, Internals) {
		protos := make([]SyncProtocol, n)
		for u := range protos {
			protos[u] = &scriptSync{actions: script[u]}
		}
		rec := &InternalsRecorder{}
		res, err := RunSync(SyncConfig{
			Network:       nw,
			Protocols:     protos,
			MaxSlots:      maxSlots,
			RunToMaxSlots: true,
			Tiling:        tiling,
			TileWorkers:   workers,
			Scratch:       sc,
			Observer:      rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, rec.Last
	}
	single := NewSyncScratch()
	base := make([]*SyncResult, slots+1)
	for s := 1; s <= slots; s++ {
		base[s], _ = run(single, nil, 0, s)
	}

	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		// The deferred positions: from each later chunk's first position up
		// to the next word start.
		count := chunkCount(n, workers)
		var deferred []int
		for i := 1; i < count; i++ {
			lo, _ := chunkBounds(i, count, n)
			for p := rowStart[lo]; p&63 != 0; p++ {
				deferred = append(deferred, p)
			}
		}
		if len(deferred) == 0 {
			t.Fatalf("workers %d: every one of %d chunk starts falls on a word start", workers, count)
		}
		sc := NewSyncScratch()
		hits := 0
		for s := 1; s <= slots; s++ {
			label := fmt.Sprintf("workers %d slot %d", workers, s)
			got, in := run(sc, tl, workers, s)
			if in.TiledSlots != int64(s) {
				t.Fatalf("%s: %d of %d slots on the parallel path", label, in.TiledSlots, s)
			}
			sameCoverage(t, label, base[s].Coverage, got.Coverage)
			for _, l := range links {
				wantAt, wantOK := base[s].Coverage.FirstCovered(l)
				gotAt, gotOK := got.Coverage.FirstCovered(l)
				if gotAt != wantAt || gotOK != wantOK {
					t.Fatalf("%s: link %v first covered (%v, %v), single tile (%v, %v)", label, l, gotAt, gotOK, wantAt, wantOK)
				}
			}
			if s == slots {
				for _, p := range deferred {
					if _, ok := got.Coverage.FirstCovered(links[p]); ok {
						hits++
					}
				}
			}
		}
		if hits == 0 {
			t.Fatalf("workers %d: no delivery landed in the %d deferred positions", workers, len(deferred))
		}
	}
}

// TestSyncTiledNeedsNoHalo pins the parallel path on networks whose
// tilings say nothing about reach: a geometric network under a grid much
// finer than its radius, and a coordinate-free Erdős–Rényi network (every
// node at the origin) under a multi-tile grid. Both have a node count that
// is not a multiple of 64 and split into at least three NodeID chunks at
// every worker count. Every slot must take the parallel path, and each
// node's call log, the coverage record and the error of a run with two
// scripted bad decisions must equal the single tile's.
func TestSyncTiledNeedsNoHalo(t *testing.T) {
	const slots, failAt = 40, 7
	r := rng.New(2811)
	er, err := topology.ErdosRenyi(900, 0.02, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignUniformK(er, 6, 3, r); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		nw    *topology.Network
		grid  int
	}{
		{"geometric 16x16 under radius 0.1", tiledNet(t, 29, 1000, 0.1), 16},
		{"erdos-renyi 4x4", er, 4},
	} {
		nw, n := tc.nw, tc.nw.N()
		tl := mustTiling(t, nw, tc.grid, tc.grid)
		if n%64 == 0 || chunkCount(n, 1) < 3 {
			t.Fatalf("%s: %d nodes in %d chunks", tc.label, n, chunkCount(n, 1))
		}
		run := func(tiling *topology.Tiling, workers int, ack bool) (*SyncResult, []*logSync, Internals) {
			protos, logs := logProtos(t, nw, 31, ack)
			rec := &InternalsRecorder{}
			res, err := RunSync(SyncConfig{
				Network:       nw,
				Protocols:     protos,
				MaxSlots:      slots,
				RunToMaxSlots: true,
				Tiling:        tiling,
				TileWorkers:   workers,
				Observer:      rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res, logs, rec.Last
		}
		// Two nodes in the first and last chunk fail in the same slot.
		lo, hi := topology.NodeID(5), topology.NodeID(n-3)
		failing := func(tiling *topology.Tiling, workers int) error {
			protos := syncProtos(t, nw, 5)
			for _, u := range []topology.NodeID{hi, lo} {
				protos[u] = &faultSync{SyncProtocol: protos[u], at: failAt, bad: radio.Action{Mode: radio.Mode(9)}}
			}
			_, err := RunSync(SyncConfig{
				Network: nw, Protocols: protos, MaxSlots: slots, RunToMaxSlots: true,
				Tiling: tiling, TileWorkers: workers,
			})
			return err
		}
		wantErr := failing(nil, 0)
		if wantErr == nil || !strings.Contains(wantErr.Error(), fmt.Sprintf("node %d slot %d", lo, failAt)) {
			t.Fatalf("%s: single-tile error %v", tc.label, wantErr)
		}
		for _, ack := range []bool{false, true} {
			want, wantLogs, _ := run(nil, 0, ack)
			if want.Coverage.Progress() == 0 {
				t.Fatalf("%s: single-tile run covered nothing", tc.label)
			}
			for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				label := fmt.Sprintf("%s ack %v workers %d", tc.label, ack, workers)
				got, logs, in := run(tl, workers, ack)
				if in.TiledSlots != int64(got.SlotsSimulated) {
					t.Fatalf("%s: %d of %d slots on the parallel path", label, in.TiledSlots, got.SlotsSimulated)
				}
				sameCoverage(t, label, want.Coverage, got.Coverage)
				for u := range wantLogs {
					if !slices.EqualFunc(logs[u].log, wantLogs[u].log, func(a, b callRec) bool {
						return a.deliver == b.deliver && a.local == b.local && a.act == b.act &&
							a.from == b.from && slices.Equal(a.heard, b.heard)
					}) {
						t.Fatalf("%s: node %d call log differs", label, u)
					}
				}
				if !ack {
					if err := failing(tl, workers); err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("%s: error %v, want %v", label, err, wantErr)
					}
				}
			}
		}
	}
}
