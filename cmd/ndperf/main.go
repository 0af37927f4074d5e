// Command ndperf measures engine throughput on the canonical benchmark
// scenarios (the geometric networks of internal/sim's benchmarks) and
// writes a machine-readable snapshot to BENCH_3.json: ns per operation, ns
// per resolved slot, allocations, and delivery throughput for the
// synchronous and asynchronous engines (the asynchronous one both stopping
// at completion and running its whole horizon), plus steady-state rows that
// reuse one sim scratch across runs (the trial-loop configuration),
// large-n rows (200-node sync, 100-node async), and dynamic rows that run
// the same large-n scenarios on a churn / mobility world so the epoch
// boundary-crossing cost stays measured, and kernel rows that isolate the
// channel package's word-level bitset primitives (the word-OR transmitter
// mask pass and the candidate-mask intersection) from the engines
// built on them. `make bench` refreshes the
// committed snapshot; CI runs it as a smoke and uploads the artifact, so a
// hot-path regression shows up as a diff instead of an anecdote.
//
// The workloads mirror BenchmarkRunSync / BenchmarkRunAsync /
// BenchmarkRunAsyncFull and their Scratch / large-n variants exactly
// (same topology seeds, protocol seeds, and horizons) with one addition:
// deliveries are tallied so throughput can be reported per second of
// engine time. The sync rows count them per node, without an event
// subscription, so the tally never changes the path a row measures; the
// async rows count them, and the frames each run resolved, with an
// observer, which never changes how long a run lasts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/clock"
	"m2hew/internal/core"
	"m2hew/internal/diag"
	"m2hew/internal/dynamics"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/sim"
	"m2hew/internal/telemetry"
	"m2hew/internal/topology"
)

// benchRow is one engine's measurement. slots_per_op counts the slots the
// engine resolved per run: global slots for the synchronous engine, local
// slots per node (frames × slots-per-frame) for the asynchronous ones.
type benchRow struct {
	Name             string  `json:"name"`
	NsPerOp          int64   `json:"ns_per_op"`
	BytesPerOp       int64   `json:"bytes_per_op"`
	AllocsPerOp      int64   `json:"allocs_per_op"`
	SlotsPerOp       float64 `json:"slots_per_op"`
	NsPerSlot        float64 `json:"ns_per_slot"`
	DeliveriesPerOp  float64 `json:"deliveries_per_op"`
	DeliveriesPerSec float64 `json:"deliveries_per_sec"`
}

// snapshot is the BENCH_3.json document.
type snapshot struct {
	Scenario   string     `json:"scenario"`
	Notes      string     `json:"notes"`
	Benchmarks []benchRow `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_3.json", "output path for the JSON snapshot")
	metrics := flag.String("metrics", "", "also derive run telemetry during the benchmarks and write it as NDJSON to this file (skews allocs_per_op; not for committed snapshots)")
	diagAddr := flag.String("diag", "", "serve live diagnostics (/metrics, /runinfo, /debug/pprof) on this address while the benchmarks run (/metrics is populated only with -metrics)")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a heap profile to this file at exit")
	soak := flag.Bool("soak1m", false, "run the off-CI 1M-node tiled soak instead of the benchmark suite (no snapshot is written)")
	flag.Parse()
	if *soak {
		if err := soak1M(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ndperf:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*out, *metrics, *diagAddr, *cpuProf, *memProf); err != nil {
		fmt.Fprintln(os.Stderr, "ndperf:", err)
		os.Exit(1)
	}
}

// diagStarted is called with the diagnostics server's base URL once it is
// listening; tests override it to probe the live server.
var diagStarted = func(url string) {}

func run(out, metricsPath, diagAddr, cpuProf, memProf string) (retErr error) {
	stopProfiles, err := telemetry.StartProfiles(cpuProf, memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil && retErr == nil {
			retErr = err
		}
	}()
	nw, err := benchNetworkN(30, 0.35)
	if err != nil {
		return err
	}
	params := nw.ComputeParams()
	nw200, err := benchNetworkN(200, 0.12)
	if err != nil {
		return err
	}
	nw100, err := benchNetworkN(100, 0.16)
	if err != nil {
		return err
	}
	nw100k, tiling100k, err := benchNetwork100k()
	if err != nil {
		return err
	}

	var (
		reg *telemetry.Registry
		agg *telemetry.Aggregate
	)
	if metricsPath != "" {
		reg = telemetry.NewRegistry()
		// The fixed 30-node scenario makes per-node latency series meaningful.
		agg = telemetry.NewAggregate(reg, telemetry.PerNodeLatency(nw.N()))
	}
	if diagAddr != "" {
		// ndperf calls the engines directly (no harness pool), so the diag
		// server exposes /runinfo and the pprof endpoints for profiling a
		// live benchmark; /metrics carries data only when -metrics also
		// attaches the telemetry observer (which skews allocs_per_op).
		srv, err := diag.Serve(diagAddr, diag.Config{
			Registry: reg,
			Info: diag.RunInfo{Command: "ndperf", Seed: 1, Scenario: struct {
				Out     string `json:"out"`
				Metrics string `json:"metrics,omitempty"`
			}{out, metricsPath}},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintln(os.Stderr, "ndperf: diagnostics on", srv.URL())
		diagStarted(srv.URL())
	}
	// Dynamic worlds for the large-n rows: churn (with a primary user) on
	// the 200-node sync scenario, mobility on the 100-node async one. Each
	// run gets a fresh world from a fixed seed so the per-epoch rebuild
	// cost is inside the measurement, like the protocol construction is.
	churnWorld := func() *dynamics.World {
		w, err := dynamics.NewWorld(nw200, dynamics.Spec{
			EpochLen: 100,
			Churn:    &dynamics.Churn{JoinFraction: 0.3, JoinWindow: 8, LeaveFraction: 0.2, LeaveWindow: 6},
			Primary:  &dynamics.Primary{Events: 3, Duration: 4, Radius: 0.2},
		}, 5, rng.New(7))
		if err != nil {
			panic(err)
		}
		return w
	}
	mobilityWorld := func() *dynamics.World {
		w, err := dynamics.NewWorld(nw100, dynamics.Spec{
			EpochLen: 50,
			Mobility: &dynamics.Mobility{Speed: 0.01, Radius: 0.16, Pause: 1},
		}, 14, rng.New(7))
		if err != nil {
			panic(err)
		}
		return w
	}
	// A sync row's error is a run that left the path it exists to measure.
	var rowErr error
	syncRow := func(r benchRow, err error) benchRow {
		if rowErr == nil {
			rowErr = err
		}
		return r
	}
	rows := []benchRow{
		syncRow(benchSync("RunSync", nw, params.Delta, 2000, nil, nil, nil, agg)),
		benchAsync("RunAsync", false, nw, params.Delta, 800, nil, nil, agg),
		// The whole horizon: the work the termination runs do. The row kept
		// its name from when a second engine did this.
		benchAsync("RunAsyncOnline", true, nw, params.Delta, 800, nil, nil, agg),
		// Steady state: one scratch reused across runs, the per-worker trial
		// loop configuration. The gap to the rows above is the reuse saving.
		syncRow(benchSync("RunSyncScratch", nw, params.Delta, 2000, sim.NewSyncScratch(), nil, nil, agg)),
		benchAsync("RunAsyncScratch", false, nw, params.Delta, 800, sim.NewAsyncScratch(), nil, agg),
		// Large-n regime (shorter horizons keep wall time comparable).
		syncRow(benchSync("RunSyncN200", nw200, nw200.ComputeParams().Delta, 500, sim.NewSyncScratch(), nil, nil, nil)),
		benchAsync("RunAsyncN100", false, nw100, nw100.ComputeParams().Delta, 200, sim.NewAsyncScratch(), nil, nil),
		// Very-large-n regime: the streamed-CSR 100k scenario on the tiled
		// parallel resolver. A short horizon keeps the row ~1s/op; deltaEst
		// is fixed (ComputeParams at 100k would dominate setup).
		syncRow(benchSync("RunSyncN100k", nw100k, 16, 8, sim.NewSyncScratch(), tiling100k, nil, nil)),
		// Dynamic regime: same large-n scenarios on a time-varying world.
		// The gap to the static rows above is the dynamics overhead (epoch
		// snapshots, activity gating, growable coverage).
		syncRow(benchSync("RunSyncChurn", nw200, nw200.ComputeParams().Delta, 500, sim.NewSyncScratch(), nil, churnWorld, nil)),
		benchAsync("RunAsyncMobility", false, nw100, nw100.ComputeParams().Delta, 200, sim.NewAsyncScratch(), mobilityWorld, nil),
	}
	if rowErr != nil {
		return rowErr
	}
	rows = append(rows, benchKernels()...)
	doc := snapshot{
		Scenario:   "GeometricConnected(seed=1) + AssignUniformK(8,4); base n=30 r=0.35 (SyncUniform 2000 slots / Async 800 frames of 3 slots); large-n rows n=200 r=0.12 (500 slots) and n=100 r=0.16 (200 frames); N100k row streams GeometricConnectedCSR n=100k r=0.007 onto the multi-tile path, failing if any slot leaves it (TilingByRadius 32x32, deltaEst 16, 8 slots); Scratch rows reuse one sim scratch across runs; Churn/Mobility rows run the large-n scenarios on a dynamics.World (seed 7); Kernel rows measure the channel word kernels on the 200-node dimensions (slots_per_op = kernel calls)",
		Notes:      "timings are machine-dependent; compare ratios across commits, not absolute values. slots_per_op is global slots (sync) or per-node local slots (async).",
		Benchmarks: rows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-16s %12d ns/op %10.1f ns/slot %8d allocs/op %12.0f deliveries/s\n",
			r.Name, r.NsPerOp, r.NsPerSlot, r.AllocsPerOp, r.DeliveriesPerSec)
	}
	fmt.Println("wrote", out)
	if agg != nil {
		agg.UpdateDerived()
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := telemetry.WriteNDJSON(f, reg); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", metricsPath)
	}
	return nil
}

// teleObserver hands out a fresh per-run telemetry observer, or nil when
// -metrics is off so sim.MultiObserver collapses to the bare delivery
// counter and the committed snapshot path is untouched.
func teleObserver(agg *telemetry.Aggregate, nw *topology.Network) sim.Observer {
	if agg == nil {
		return nil
	}
	channels := 0
	if maxC, ok := nw.Universe().Max(); ok {
		channels = int(maxC) + 1
	}
	return agg.TrialObserver(nw.N(), channels)
}

// benchNetworkN rebuilds the benchmark topologies of
// internal/sim/bench_test.go.
func benchNetworkN(n int, radius float64) (*topology.Network, error) {
	r := rng.New(1)
	nw, err := topology.GeometricConnected(n, radius, r, 100)
	if err != nil {
		return nil, err
	}
	if err := topology.AssignUniformK(nw, 8, 4, r); err != nil {
		return nil, err
	}
	return nw, nil
}

// benchNetwork100k builds the streamed-CSR 100k scenario (mean degree
// ~15, connected at seed 1) and its radius-safe tiling for the tiled
// parallel resolver row.
func benchNetwork100k() (*topology.Network, *topology.Tiling, error) {
	const radius = 0.007
	r := rng.New(1)
	nw, err := topology.GeometricConnectedCSR(100_000, radius, r, 100)
	if err != nil {
		return nil, nil, err
	}
	if err := topology.AssignUniformK(nw, 8, 4, r); err != nil {
		return nil, nil, err
	}
	tl, err := topology.TilingByRadius(nw, radius, 1024)
	if err != nil {
		return nil, nil, err
	}
	return nw, tl, nil
}

// countingUniform is Algorithm 3 with a delivery counter. The sync rows
// count deliveries per node and sum them after each run: an EventDeliver
// subscription would make every run emit per-listener events, which keeps
// it off the parallel path.
type countingUniform struct {
	*core.SyncUniform
	deliveries int64
}

func (c *countingUniform) Deliver(msg radio.Message) {
	c.deliveries++
	c.SyncUniform.Deliver(msg)
}

// benchSync measures one synchronous row. A row with a tiling fails unless
// every slot of every run took the parallel path, so it cannot silently
// measure the single tile.
func benchSync(name string, nw *topology.Network, deltaEst, maxSlots int, scratch *sim.SyncScratch, tiling *topology.Tiling, world func() *dynamics.World, agg *telemetry.Aggregate) (benchRow, error) {
	var (
		deliveries, slots int64
		pathErr           error
	)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		deliveries, slots = 0, 0
		for i := 0; i < b.N; i++ {
			root := rng.New(uint64(i) + 1)
			counted := make([]countingUniform, nw.N())
			protos := make([]sim.SyncProtocol, nw.N())
			for u := 0; u < nw.N(); u++ {
				p, err := core.NewSyncUniform(nw.Avail(topology.NodeID(u)), deltaEst, root.Split())
				if err != nil {
					b.Fatal(err)
				}
				counted[u].SyncUniform = p
				protos[u] = &counted[u]
			}
			tele := teleObserver(agg, nw)
			obs := tele
			var rec *sim.InternalsRecorder
			if tiling != nil {
				rec = &sim.InternalsRecorder{}
				obs = sim.MultiObserver(rec, tele)
			}
			cfg := sim.SyncConfig{
				Network:       nw,
				Protocols:     protos,
				MaxSlots:      maxSlots,
				RunToMaxSlots: true,
				Scratch:       scratch,
				Tiling:        tiling,
				Observer:      obs,
			}
			if world != nil {
				cfg.Dynamics = world()
			}
			r, err := sim.RunSync(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if agg != nil {
				agg.TrialDone(tele)
			}
			if rec != nil && rec.Last.TiledSlots != int64(r.SlotsSimulated) {
				pathErr = fmt.Errorf("%s: %d of %d slots took the parallel path", name, rec.Last.TiledSlots, r.SlotsSimulated)
				b.FailNow()
			}
			for u := range counted {
				deliveries += counted[u].deliveries
			}
			slots += int64(r.SlotsSimulated)
		}
	})
	if pathErr != nil {
		return benchRow{}, pathErr
	}
	return row(name, res, deliveries, float64(slots)/float64(res.N)), nil
}

func benchAsync(name string, runToMax bool, nw *topology.Network, deltaEst, maxFrames int, scratch *sim.AsyncScratch, world func() *dynamics.World, agg *telemetry.Aggregate) benchRow {
	const (
		frameLen      = 3.0
		slotsPerFrame = 3
	)
	var deliveries, frames int64
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		deliveries, frames = 0, 0
		for i := 0; i < b.N; i++ {
			root := rng.New(uint64(i) + 1)
			nodes := make([]sim.AsyncNode, nw.N())
			for u := 0; u < nw.N(); u++ {
				p, err := core.NewAsync(nw.Avail(topology.NodeID(u)), deltaEst, root.Split())
				if err != nil {
					b.Fatal(err)
				}
				drift, err := clock.NewRandomWalk(clock.MaxAsyncDrift, 0.02, root.Split())
				if err != nil {
					b.Fatal(err)
				}
				nodes[u] = sim.AsyncNode{Protocol: p, Start: root.Float64() * 10, Drift: drift}
			}
			tele := teleObserver(agg, nw)
			cfg := sim.AsyncConfig{
				Network:        nw,
				Nodes:          nodes,
				FrameLen:       frameLen,
				MaxFrames:      maxFrames,
				RunToMaxFrames: runToMax,
				Scratch:        scratch,
				Observer: sim.MultiObserver(sim.OnlyEvents(sim.MaskOf(sim.EventDeliver, sim.EventFrameStart), sim.ObserverFunc(func(e sim.Event) {
					if e.Kind == sim.EventDeliver {
						deliveries++
					} else {
						frames++
					}
				})), tele),
			}
			if world != nil {
				cfg.Dynamics = world()
			}
			if _, err := sim.RunAsync(cfg); err != nil {
				b.Fatal(err)
			}
			if agg != nil {
				agg.TrialDone(tele)
			}
		}
	})
	// A run that stops at completion resolves fewer than maxFrames frames
	// per node: slots_per_op is the mean per-node count it resolved.
	return row(name, res, deliveries, float64(frames*slotsPerFrame)/float64(res.N*nw.N()))
}

// benchKernels measures the channel package's word-level bitset kernels on
// a slot-resolution-shaped workload (the 200-node scenario's dimensions:
// 200 nodes, 16 channels, 4 words per mask). KernelWordOr is the word-OR
// pass that accumulates per-channel transmitter masks from node channel
// sets; KernelOverlapResolve is the candidate-mask intersection
// that resolves every listener against its channel's mask. slots_per_op is
// the number of kernel calls per op; the delivery columns do not apply.
func benchKernels() []benchRow {
	const (
		nodes    = 200
		channels = 16
		wordsPer = (nodes + 63) / 64
	)
	r := rng.New(9)
	masks := make([][]uint64, nodes) // per-listener candidate masks
	srcs := make([][]uint64, nodes)  // per-transmitter id-bit words
	chs := make([]int, nodes)
	for u := 0; u < nodes; u++ {
		m := make([]uint64, wordsPer)
		for i := 0; i < 8; i++ { // ~8 candidate neighbors
			m[r.IntN(wordsPer)] |= 1 << uint(r.IntN(64))
		}
		masks[u] = m
		src := make([]uint64, wordsPer)
		src[u>>6] |= 1 << uint(u&63)
		srcs[u] = src
		chs[u] = r.IntN(channels)
	}
	txWords := make([]uint64, channels*wordsPer)
	orRes := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			for i := range txWords {
				txWords[i] = 0
			}
			for u, src := range srcs {
				w := txWords[chs[u]*wordsPer : (chs[u]+1)*wordsPer]
				channel.OrInto(w, src)
			}
		}
	})
	var sink int
	resolveRes := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			for u, m := range masks {
				w := txWords[chs[u]*wordsPer : (chs[u]+1)*wordsPer]
				count, first := channel.OverlapResolve(m, w)
				sink += count + first
			}
		}
	})
	_ = sink
	return []benchRow{
		row("KernelWordOr", orRes, 0, nodes),
		row("KernelOverlapResolve", resolveRes, 0, nodes),
	}
}

// row folds a benchmark result and its delivery tally into one record. The
// delivery counter covers the final measured run of res.N iterations.
func row(name string, res testing.BenchmarkResult, deliveries int64, slotsPerOp float64) benchRow {
	perOp := float64(deliveries) / float64(res.N)
	var perSec float64
	if s := res.T.Seconds(); s > 0 {
		perSec = float64(deliveries) / s
	}
	return benchRow{
		Name:             name,
		NsPerOp:          res.NsPerOp(),
		BytesPerOp:       res.AllocedBytesPerOp(),
		AllocsPerOp:      res.AllocsPerOp(),
		SlotsPerOp:       slotsPerOp,
		NsPerSlot:        float64(res.NsPerOp()) / slotsPerOp,
		DeliveriesPerOp:  perOp,
		DeliveriesPerSec: perSec,
	}
}
