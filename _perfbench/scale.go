package main

import (
	"fmt"
	"time"

	"m2hew/internal/rng"
	"m2hew/internal/sim"
	"m2hew/internal/topology"
)

// The streamed 100k-node scenario of cmd/ndperf's RunSyncN100k row: mean
// degree about 15, uniform 4-of-8 channels, a radius-safe tiling and a
// fixed degree estimate (ComputeParams at this size would dominate set-up).
// The graph is fixed (topologySeed, connected at the first attempt); the
// workload seed drives the protocols. Other graphs can need a second
// generation attempt, which would make set-up time depend on the seed.
const (
	scaleNodes    = 100_000
	scaleRadius   = 0.007
	scaleTiles    = 1024
	scaleDeltaEst = 16
	// A pass is scaleRuns engine runs of scaleSlots slots each, short so
	// that a run can take the median of several passes.
	scaleRuns  = 8
	scaleSlots = 8
)

// scaleInstance calls sim.RunSync directly, reusing one engine scratch and
// one set of protocols across runs.
type scaleInstance struct {
	nw     *topology.Network
	tl     *topology.Tiling
	protos []sim.SyncProtocol
	sc     *sim.SyncScratch
	edges  int
	// set-up layer timings, seconds, and protocol allocation, MB
	generate, assign, tiling, protocols, protocolsMB float64
	// the last traced pass's allocation and node-slots
	tracedAlloc     uint64
	tracedNodeSlots float64
}

func setupScale(seed uint64) (instance, error) {
	s := &scaleInstance{sc: sim.NewSyncScratch()}
	r := rng.New(topologySeed)
	var err error
	start := time.Now()
	if s.nw, err = topology.GeometricConnectedCSR(scaleNodes, scaleRadius, r, 100); err != nil {
		return nil, err
	}
	s.generate = lap(&start)
	if err = topology.AssignUniformK(s.nw, 8, 4, r); err != nil {
		return nil, err
	}
	s.assign = lap(&start)
	if s.tl, err = topology.TilingByRadius(s.nw, scaleRadius, scaleTiles); err != nil {
		return nil, err
	}
	s.tiling = lap(&start)
	var pw window
	if err := pw.measure(func() error {
		s.protos, err = syncProtocols(s.nw, scaleDeltaEst, rng.New(seed))
		return err
	}); err != nil {
		return nil, err
	}
	s.protocols, s.protocolsMB = pw.wall.Seconds(), float64(pw.alloc)/1e6
	// The first run on a cold scratch builds the engine's derived tables
	// (candidates, masks, tile state); measured runs reuse them.
	if _, err := s.run(1, nil); err != nil {
		return nil, fmt.Errorf("cold run: %w", err)
	}
	s.edges = edgeCount(s.nw)
	return s, nil
}

// lap returns the seconds since *start and resets it to now.
func lap(start *time.Time) float64 {
	now := time.Now()
	d := now.Sub(*start).Seconds()
	*start = now
	return d
}

func (s *scaleInstance) run(slots int, obs sim.Observer) (*sim.SyncResult, error) {
	return sim.RunSync(sim.SyncConfig{
		Network:       s.nw,
		Protocols:     s.protos,
		MaxSlots:      slots,
		RunToMaxSlots: true,
		Scratch:       s.sc,
		Tiling:        s.tl,
		Observer:      obs,
	})
}

// pass runs the engine scaleRuns times. Every run carries a mask-0
// internals recorder, traced or not, because the check needs it: every
// slot must run on the tiled path, so a silent fallback is a failure.
func (s *scaleInstance) pass(ins *items, _ int) (passResult, error) {
	tr := ins.tr
	var pr passResult
	passStart := time.Now()
	for i := 0; i < scaleRuns; i++ {
		rec := &sim.InternalsRecorder{}
		var (
			res        *sim.SyncResult
			start, end time.Time
		)
		err := pr.measure(func() error {
			var err error
			start = time.Now()
			res, err = s.run(scaleSlots, rec)
			end = time.Now()
			return err
		})
		pr.attempted++
		pr.runs = append(pr.runs, float64(end.Sub(start))/1e6)
		tr.record("sim.run", rootLayer, start, end, false)
		in := rec.Last
		switch {
		case err != nil:
			pr.fail(1, "run %d: %v", i, err)
			continue
		case rec.Reports != 1 || res.SlotsSimulated != scaleSlots || in.SlotsSimulated != int64(res.SlotsSimulated):
			pr.fail(1, "run %d: %d slots simulated, %d internals reports", i, res.SlotsSimulated, rec.Reports)
		case in.TiledSlots != in.SlotsSimulated:
			pr.fail(1, "run %d: %d of %d slots left the tiled path", i, in.SlotsSimulated-in.TiledSlots, in.SlotsSimulated)
		}
		pr.tally.add(s.nw.N(), true, in, end.Sub(start))
	}
	tr.record(rootLayer, "", passStart, time.Now(), false)
	if tr != nil {
		s.tracedAlloc, s.tracedNodeSlots = pr.alloc, pr.tally.nodeSlots
	}
	return pr, nil
}

// layers reports the set-up layers and the engine's derived tables: their
// build time is a cold one-slot run on a fresh scratch minus a warm one on
// the same scratch, and their live size is the heap the fresh scratch holds.
func (s *scaleInstance) layers(m metrics) error {
	m["topology.generate_s"] = s.generate
	m["topology.assign_s"] = s.assign
	m["topology.tiling_s"] = s.tiling
	m["topology.edges"] = float64(s.edges)
	m["core.protocols_s"] = s.protocols
	m["core.protocols_alloc_mb"] = s.protocolsMB
	if s.tracedNodeSlots > 0 {
		m["sim.alloc_bytes_per_node_slot"] = float64(s.tracedAlloc) / s.tracedNodeSlots
	}
	s.sc = nil
	before := liveHeapMB()
	s.sc = sim.NewSyncScratch()
	start := time.Now()
	if _, err := s.run(1, nil); err != nil {
		return fmt.Errorf("cold run: %w", err)
	}
	cold := lap(&start)
	m["sim.tables_live_mb"] = liveHeapMB() - before
	start = time.Now()
	if _, err := s.run(1, nil); err != nil {
		return fmt.Errorf("warm run: %w", err)
	}
	m["sim.tables_s"] = cold - lap(&start)
	return nil
}
