package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"m2hew/internal/core"
	"m2hew/internal/rng"
	"m2hew/internal/sim"
	"m2hew/internal/topology"
)

// soak1M is the off-CI scale soak behind `make soak-1m`: one million nodes
// at the same mean degree (~15) as the RunSyncN100k row, streamed into a
// CSR adjacency in Morton order and resolved on the parallel sync path. It
// is a memory and wall-clock ceiling check, not a benchmark — it runs once,
// reports each stage's cost, the parallel slot count, the live heap after
// a GC and the scratch's network tables within it (TableBytes), and writes
// no snapshot (timings at this scale are too machine-bound to gate on).
func soak1M(w io.Writer) error {
	const (
		n        = 1_000_000
		radius   = 0.0022 // n·π·r² ≈ 15.2 expected neighbors, matching the 100k row
		slots    = 4
		deltaEst = 16
	)
	start := time.Now()
	r := rng.New(1)
	nw, err := topology.GeometricConnectedCSR(n, radius, r, 100)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "graph    %12v  n=%d edges=%d\n", time.Since(start).Round(time.Millisecond), nw.N(), nw.EdgeCount())

	t0 := time.Now()
	if err := topology.AssignUniformK(nw, 8, 4, r); err != nil {
		return err
	}
	fmt.Fprintf(w, "assign   %12v\n", time.Since(t0).Round(time.Millisecond))

	t0 = time.Now()
	tl, err := topology.TilingByRadius(nw, radius, 4096)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tiling   %12v  %d tiles (%dx%d)\n", time.Since(t0).Round(time.Millisecond), tl.Tiles(), tl.Cols(), tl.Rows())

	t0 = time.Now()
	root := rng.New(2)
	protos := make([]sim.SyncProtocol, nw.N())
	for u := 0; u < nw.N(); u++ {
		p, err := core.NewSyncUniform(nw.Avail(topology.NodeID(u)), deltaEst, root.Split())
		if err != nil {
			return err
		}
		protos[u] = p
	}
	fmt.Fprintf(w, "protos   %12v\n", time.Since(t0).Round(time.Millisecond))

	rec := &sim.InternalsRecorder{}
	sc := sim.NewSyncScratch()
	t0 = time.Now()
	res, err := sim.RunSync(sim.SyncConfig{
		Network:       nw,
		Protocols:     protos,
		MaxSlots:      slots,
		RunToMaxSlots: true,
		Scratch:       sc,
		Tiling:        tl,
		Observer:      rec,
	})
	if err != nil {
		return err
	}
	runDur := time.Since(t0)
	// The live heap: what the network, the protocols, the scratch's
	// derived tables and the result hold once the run's garbage is
	// collected.
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	fmt.Fprintf(w, "run      %12v  %.1fms/slot\n", runDur.Round(time.Millisecond),
		float64(runDur.Milliseconds())/float64(res.SlotsSimulated))
	fmt.Fprintf(w, "slots=%d progress=%.3f tiled_slots=%d live_heap=%.2fGB tables=%.2fGB total=%v\n",
		res.SlotsSimulated, res.Coverage.Progress(), rec.Last.TiledSlots,
		float64(m.HeapAlloc)/1e9, float64(sc.TableBytes())/1e9, time.Since(start).Round(time.Millisecond))
	runtime.KeepAlive(protos)
	runtime.KeepAlive(sc)
	if rec.Last.TiledSlots != int64(res.SlotsSimulated) {
		return fmt.Errorf("soak ran %d slots but only %d on the tiled path", res.SlotsSimulated, rec.Last.TiledSlots)
	}
	return nil
}
