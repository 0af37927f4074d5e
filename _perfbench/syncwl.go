package main

import (
	"fmt"
	"slices"
	"time"

	"m2hew"
	"m2hew/internal/core"
	"m2hew/internal/dynamics"
	"m2hew/internal/harness"
	"m2hew/internal/rng"
	"m2hew/internal/sim"
	"m2hew/internal/topology"
)

// The 200-node scenario of the RunSyncN200 and RunSyncChurn rows of
// cmd/ndperf: a connected geometric graph with uniform 4-of-8 channels.
// The graph is fixed (topologySeed); the workload seed drives the trials.
// Graphs from other seeds differ by up to 10% in edges and in completion
// slots, which would swamp the run-to-run spread the bounds must resolve.
const (
	topologySeed = 1
	n200Nodes    = 200
	n200Radius   = 0.12
	n200Universe = 8
	n200Subset   = 4
	// lossProb and the dynamics below are the lossy-churn workload's.
	lossProb = 0.2
)

var churnDynamics = m2hew.DynamicsConfig{
	EpochLen:           100,
	ChurnJoinFraction:  0.3,
	ChurnJoinWindow:    8,
	ChurnLeaveFraction: 0.2,
	ChurnLeaveWindow:   6,
	PrimaryEvents:      3,
	PrimaryDuration:    4,
	PrimaryRadius:      0.2,
}

// syncInstance runs Algorithm 3 trials on one 200-node network. A pass is
// one m2hew.RunTrials call of a fixed number of trials; pass k takes the
// k-th seed of a sequence drawn from the workload seed.
type syncInstance struct {
	lossy     bool
	seed      uint64
	nw        *m2hew.Network
	cfg       m2hew.RunConfig
	trials    int
	seedSrc   *rng.Source
	passSeeds []uint64
	truth     []map[int][]int // node → true neighbor → sorted span
	bound     float64         // the Theorem 3 slot bound reported by a trial
}

func setupSync(seed uint64, lossy bool) (instance, error) {
	nw, err := m2hew.BuildNetwork(m2hew.NetworkConfig{
		Nodes:            n200Nodes,
		Topology:         m2hew.TopologyGeometric,
		Radius:           n200Radius,
		RequireConnected: true,
		Universe:         n200Universe,
		Channels:         m2hew.ChannelsUniform,
		SubsetSize:       n200Subset,
		Seed:             topologySeed,
	})
	if err != nil {
		return nil, err
	}
	s := &syncInstance{
		lossy: lossy,
		seed:  seed,
		nw:    nw,
		cfg:   m2hew.RunConfig{Algorithm: m2hew.AlgorithmSyncUniform},
	}
	// About one second of trials per pass on two cores.
	s.trials = 200
	if lossy {
		s.trials = 20
		s.cfg.LossProb = lossProb
		d := churnDynamics
		s.cfg.Dynamics = &d
	}
	s.seedSrc = rng.New(seed)
	return s, nil
}

// passSeed returns pass k's RunTrials seed.
func (s *syncInstance) passSeed(k int) uint64 {
	for len(s.passSeeds) <= k {
		s.passSeeds = append(s.passSeeds, s.seedSrc.Uint64()|1)
	}
	return s.passSeeds[k]
}

// trialSeeds reproduces m2hew.RunTrials's per-trial seeds, so a traced
// pass, which must call m2hew.Run to attach an observer, runs the same
// trials as an untraced one.
func trialSeeds(seed uint64, trials int) []uint64 {
	seeds := make([]uint64, trials)
	seeds[0] = seed
	src := rng.New(seed)
	for t := 1; t < trials; t++ {
		seeds[t] = src.Uint64()
	}
	return seeds
}

func (s *syncInstance) pass(ins *items, k int) (passResult, error) {
	var pr passResult
	cfg := s.cfg
	cfg.Seed = s.passSeed(k)
	var (
		reps []*m2hew.Report
		err  error
	)
	if ins.tr == nil {
		err = pr.measure(func() error {
			reps, err = m2hew.RunTrials(s.nw, cfg, s.trials)
			return err
		})
	} else {
		reps, err = s.tracedTrials(&pr, ins, cfg)
	}
	pr.attempted = s.trials
	if err != nil {
		pr.fail(s.trials, "seed %d: %v", cfg.Seed, err)
	} else {
		s.check(&pr, reps)
	}
	pr.runs, pr.busy = ins.take()
	pr.tally = ins.tally
	return pr, nil
}

// tracedTrials runs a pass's trials as m2hew.RunTrials would, but through
// m2hew.Run on the harness pool, because only Run accepts the observer that
// splits a trial into m2hew's preparation, the engine and report building.
// Run gets no per-worker engine scratch, so every traced trial rebuilds the
// engine's network tables; that cost is part of the tracing overhead.
func (s *syncInstance) tracedTrials(pr *passResult, ins *items, cfg m2hew.RunConfig) ([]*m2hew.Report, error) {
	tr := ins.tr
	seeds := trialSeeds(cfg.Seed, s.trials)
	reps := make([]*m2hew.Report, s.trials)
	ins.setParent("harness.batch")
	err := pr.measure(func() error {
		start := time.Now()
		err := tr.call("harness.batch", rootLayer, func() error {
			return harness.Run(s.trials, func(i int) error {
				obs := &runObs{}
				c := cfg
				c.Seed = seeds[i]
				c.Observer = obs
				t0 := time.Now()
				rep, err := m2hew.Run(s.nw, c)
				end := time.Now()
				if err != nil {
					return fmt.Errorf("trial %d: %w", i, err)
				}
				if !obs.reported || obs.firstSlot.IsZero() {
					return fmt.Errorf("trial %d: no slot event or internals report", i)
				}
				tr.record("m2hew.prepare", "harness.item", t0, obs.firstSlot, true)
				tr.record("sim.run", "harness.item", obs.firstSlot, obs.internalsAt, true)
				tr.record("m2hew.report", "harness.item", obs.internalsAt, end, true)
				ins.mu.Lock()
				ins.tally.add(s.nw.N(), true, obs.in, obs.internalsAt.Sub(obs.firstSlot))
				ins.mu.Unlock()
				reps[i] = rep
				return nil
			})
		})
		tr.record(rootLayer, "", start, time.Now(), false)
		return err
	})
	if err == nil && len(reps) > 0 {
		s.bound = reps[0].Bound
	}
	return reps, err
}

// check compares each report with the paper's bound and the ground truth.
// Loss-free static trials must complete within the Theorem 3 bound with
// every neighbor table equal to the true neighbors and spans. Lossy dynamic
// trials must cover some links, and every neighbor they report must be a
// true neighbor with a subset of the true span.
func (s *syncInstance) check(pr *passResult, reps []*m2hew.Report) {
	if s.truth == nil {
		s.truth = make([]map[int][]int, s.nw.N())
		for u := range s.truth {
			s.truth[u] = map[int][]int{}
			for _, v := range s.nw.NeighborIDs(u) {
				if span := sortedInts(s.nw.CommonChannels(u, v)); len(span) > 0 {
					s.truth[u][v] = span
				}
			}
		}
	}
	for t, rep := range reps {
		if msg := s.checkReport(rep); msg != "" {
			pr.fail(1, "trial %d: %s", t, msg)
		}
	}
}

func (s *syncInstance) checkReport(rep *m2hew.Report) string {
	if s.lossy {
		if rep.LinksCovered <= 0 {
			return "no link covered"
		}
	} else {
		if !rep.Complete {
			return fmt.Sprintf("incomplete: %d of %d links", rep.LinksCovered, rep.LinksTotal)
		}
		if float64(rep.Slots) > rep.Bound {
			return fmt.Sprintf("%d slots exceed the Theorem 3 bound %.0f", rep.Slots, rep.Bound)
		}
	}
	if len(rep.Tables) != len(s.truth) {
		return fmt.Sprintf("%d neighbor tables for %d nodes", len(rep.Tables), len(s.truth))
	}
	for u, table := range rep.Tables {
		if !s.lossy && len(table) != len(s.truth[u]) {
			return fmt.Sprintf("node %d found %d neighbors, has %d", u, len(table), len(s.truth[u]))
		}
		for _, d := range table {
			span, ok := s.truth[u][d.Neighbor]
			if !ok {
				return fmt.Sprintf("node %d reports non-neighbor %d", u, d.Neighbor)
			}
			got := sortedInts(d.CommonChannels)
			if s.lossy && !subset(got, span) || !s.lossy && !slices.Equal(got, span) {
				return fmt.Sprintf("node %d reports channels %v for neighbor %d, span is %v", u, got, d.Neighbor, span)
			}
		}
	}
	return ""
}

// layers adds the modules m2hew.Run calls internally, timed directly on
// the same network: the topology generators, protocol construction, the
// dynamic world, and the engine's allocation per node-slot.
func (s *syncInstance) layers(m metrics) error {
	r := rng.New(topologySeed)
	var (
		twin *topology.Network
		err  error
	)
	start := time.Now()
	if twin, err = topology.GeometricConnected(n200Nodes, n200Radius, r, 200); err != nil {
		return err
	}
	m["topology.generate_s"] = time.Since(start).Seconds()
	start = time.Now()
	if err := topology.AssignUniformK(twin, n200Universe, n200Subset, r); err != nil {
		return err
	}
	m["topology.assign_s"] = time.Since(start).Seconds()
	edges := edgeCount(twin)
	if edges != s.nw.Stats().Edges {
		return fmt.Errorf("rebuilt network has %d edges, m2hew's has %d", edges, s.nw.Stats().Edges)
	}
	m["topology.edges"] = float64(edges)

	deltaEst := nextPow2(s.nw.Stats().Delta)
	maxSlots := int(s.bound) + 1
	if s.lossy {
		maxSlots = int(float64(maxSlots) / (1 - lossProb))
	}
	const probes = 8
	var protoWin, runWin window
	var worldTime time.Duration
	var nodeSlots float64
	sc := sim.NewSyncScratch()
	for p := 0; p <= probes; p++ {
		root := rng.New(s.seed + uint64(p))
		cfg := sim.SyncConfig{Network: twin, MaxSlots: maxSlots, Scratch: sc}
		if s.lossy {
			if cfg.Loss, err = sim.NewLossModel(lossProb, root.Split()); err != nil {
				return err
			}
		}
		var pw window
		if err := pw.measure(func() error {
			cfg.Protocols, err = syncProtocols(twin, deltaEst, root)
			return err
		}); err != nil {
			return err
		}
		if s.lossy {
			epochs := (maxSlots + int(churnDynamics.EpochLen) - 1) / int(churnDynamics.EpochLen)
			start := time.Now()
			cfg.Dynamics, err = dynamics.NewWorld(twin, churnSpec(), epochs, root.Split())
			if err != nil {
				return err
			}
			if p > 0 {
				worldTime += time.Since(start)
			}
			m["dynamics.epochs"] = float64(cfg.Dynamics.Horizon())
		}
		var rw window
		var res *sim.SyncResult
		if err := rw.measure(func() error {
			res, err = sim.RunSync(cfg)
			return err
		}); err != nil {
			return err
		}
		if p == 0 {
			continue // warm-up: fills the scratch's network tables
		}
		protoWin.wall += pw.wall
		protoWin.alloc += pw.alloc
		runWin.alloc += rw.alloc
		nodeSlots += float64(twin.N()) * float64(res.SlotsSimulated)
	}
	m["core.protocols_s"] = protoWin.wall.Seconds() / probes
	m["core.protocols_alloc_mb"] = float64(protoWin.alloc) / 1e6 / probes
	m["sim.alloc_bytes_per_node_slot"] = float64(runWin.alloc) / nodeSlots
	if s.lossy {
		m["dynamics.world_s"] = worldTime.Seconds() / probes
	}
	return nil
}

// churnSpec is churnDynamics as the dynamics package takes it.
func churnSpec() dynamics.Spec {
	d := churnDynamics
	return dynamics.Spec{
		EpochLen: d.EpochLen,
		Churn: &dynamics.Churn{
			JoinFraction: d.ChurnJoinFraction, JoinWindow: d.ChurnJoinWindow,
			LeaveFraction: d.ChurnLeaveFraction, LeaveWindow: d.ChurnLeaveWindow,
		},
		Primary: &dynamics.Primary{Events: d.PrimaryEvents, Duration: d.PrimaryDuration, Radius: d.PrimaryRadius},
	}
}

// syncProtocols builds one Algorithm 3 instance per node.
func syncProtocols(nw *topology.Network, deltaEst int, root *rng.Source) ([]sim.SyncProtocol, error) {
	protos := make([]sim.SyncProtocol, nw.N())
	for u := range protos {
		p, err := core.NewSyncUniform(nw.Avail(topology.NodeID(u)), deltaEst, root.Split())
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", u, err)
		}
		protos[u] = p
	}
	return protos, nil
}

func edgeCount(nw *topology.Network) int {
	deg := 0
	for u := 0; u < nw.N(); u++ {
		deg += len(nw.Neighbors(topology.NodeID(u)))
	}
	return deg / 2
}

// nextPow2 mirrors m2hew's default degree estimate: the smallest power of
// two ≥ x and ≥ 2.
func nextPow2(x int) int {
	p := 2
	for p < x {
		p *= 2
	}
	return p
}

func sortedInts(xs []int) []int {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// subset reports whether sorted a is contained in sorted b.
func subset(a, b []int) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}
