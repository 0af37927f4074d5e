package sim

import (
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// RunAsyncOnline executes an asynchronous simulation with online delivery:
// frames are generated lazily in global time order and every clear message
// is delivered to its receiver's protocol before that protocol makes its
// next frame decision.
//
// Both asynchronous engines pull decisions incrementally, calling each
// node's NextFrame when the simulation first needs its next frame; what
// distinguishes this one is delivery timing. RunAsync
// resolves node-major and applies all deliveries after every decision is
// made — fine for oblivious protocols, whose schedules ignore what they
// receive. Adaptive protocols — notably the termination-detection wrapper
// core.AsyncTerminating, whose behaviour depends on what it has received —
// require this engine, which interleaves delivery with generation in global
// frame-end order. For oblivious protocols both engines produce identical
// coverage results (asserted by differential tests), except when a loss
// model is active, whose erasure draws are consumed in a different order.
//
// Scheduling invariant: node events (frame ends) are processed in global
// time order; when the earliest unprocessed frame end belongs to node u,
// every other node has generated frames covering that instant, so all
// transmissions overlapping u's frame are known and the shared resolver can
// run. Receptions are delivered at the receiving frame's end — the decode
// point is the slot end, but the protocol can only act on it at its next
// frame boundary, so delivering at frame end is behaviourally identical and
// keeps per-node delivery order deterministic.
func RunAsyncOnline(cfg AsyncConfig) (*AsyncResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nw := cfg.Network
	n := nw.N()
	slotsPerFrame := cfg.SlotsPerFrame
	if slotsPerFrame == 0 {
		slotsPerFrame = 3
	}

	sc := cfg.Scratch
	if sc == nil {
		sc = NewAsyncScratch()
	}
	timelines, ts, err := sc.clocks(cfg.Nodes, cfg.FrameLen, slotsPerFrame)
	if err != nil {
		return nil, err
	}
	env := sc.envFor(nw, cfg.Dynamics, timelines, slotsPerFrame, cfg.Loss)
	for u := range cfg.Nodes {
		reserveNeighbors(cfg.Nodes[u].Protocol, env.cands[u])
	}
	env.reserveFrames(cfg.Nodes, cfg.MaxFrames)

	// generate appends node u's next frame (env.generate). Returns false
	// once the node hit its frame budget.
	generate := func(u int) (float64, bool, error) {
		f := len(env.frames[u])
		if f >= cfg.MaxFrames {
			return 0, false, nil
		}
		if err := env.generate(u, cfg.Nodes[u].Protocol); err != nil {
			return 0, false, err
		}
		return env.frames[u][f].end, true, nil
	}

	// Prime every node with its first frame. nextEnd[u] is the end time of
	// u's oldest unresolved frame; +Inf once exhausted.
	const inf = 1e308
	nextEnd, pending := sc.onlineBufs(n) // pending: index of the oldest unresolved frame
	for u := 0; u < n; u++ {
		end, ok, err := generate(u)
		if err != nil {
			return nil, err
		}
		if !ok {
			nextEnd[u] = inf
			continue
		}
		nextEnd[u] = end
	}

	// Dynamic runs grow the coverage target as the chronological pass
	// crosses epoch boundaries (enterEpoch), starting with epoch 0, so every
	// delivery finds its link already targeted: a delivered link existed in
	// the epoch of its listening frame's start, which the advance below
	// reaches before that frame resolves.
	world := cfg.Dynamics
	coverage := runCoverage(sc.target, world)
	mask := observerMask(cfg.Observer)
	announceEpoch := func(e int) {
		enterEpoch(cfg.Observer, mask, world.At(e), float64(e)*world.EpochLen(), 0, coverage)
	}
	nextEpoch := 1
	if world != nil {
		announceEpoch(0)
	}

	for {
		// Pop the earliest unresolved frame end.
		u, best := -1, inf
		for v := 0; v < n; v++ {
			if nextEnd[v] < best {
				best = nextEnd[v]
				u = v
			}
		}
		if u < 0 {
			break // every node exhausted its budget
		}
		uid := topology.NodeID(u)
		frameIdx := pending[u]
		g := env.frames[u][frameIdx]

		// Cross epoch boundaries up to this frame's end before resolving it:
		// frame ends are popped in ascending order, so the advance is
		// monotone, and any link this frame delivers on was born in an epoch
		// at or before the one containing its start.
		if world != nil {
			for target := world.EpochOf(g.end); nextEpoch <= target; nextEpoch++ {
				announceEpoch(nextEpoch)
			}
		}

		// Before resolving u's frame we must know every transmission
		// overlapping it. All other nodes have an unresolved frame ending
		// at or after g.end... except nodes that exhausted their budget,
		// whose generated frames may end before g.end; transmissions after
		// a node's horizon simply don't exist. Nodes still within budget
		// always have a generated frame ending >= g.end by the pop order,
		// and frames never skip time, so coverage of [g.start, g.end) is
		// complete.
		// Events for this frame are emitted at its resolution point (the
		// frame's end); EventFrameStart still carries the frame's real
		// start time.
		if cfg.Observer != nil {
			cfg.Observer.OnEvent(Event{
				Kind: EventFrameStart, Time: g.start, Slot: frameIdx,
				Node: uid, Action: g.action,
			})
		}
		var mask []maskWord
		if g.action.Mode == radio.Receive {
			mask = env.maskFor(uid, g)
		}
		delivered := 0
		for _, d := range env.resolveFrame(uid, g, mask) {
			sc.deliver(d, cfg.Nodes, coverage, cfg.Observer)
			delivered++
		}
		if cfg.Observer != nil && g.action.Mode == radio.Receive {
			cfg.Observer.OnEvent(Event{
				Kind: EventFrameResolve, Time: g.end, Slot: frameIdx,
				Node: uid, Action: g.action,
				Collected: env.lastCollected, Delivered: delivered,
			})
		}
		pending[u]++

		// Generate u's next frame (its protocol has now seen everything it
		// could have heard). Only the popped node ever generates its own
		// frames, one at a time, so the resolved frame was u's last.
		end, ok, err := generate(u)
		if err != nil {
			return nil, err
		}
		if !ok {
			nextEnd[u] = inf
			continue
		}
		nextEnd[u] = end
	}

	return sc.finishRun(cfg.Nodes, ts, coverage, cfg.MaxFrames), nil
}
