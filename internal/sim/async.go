package sim

import (
	"fmt"

	"m2hew/internal/clock"
	"m2hew/internal/dynamics"
	"m2hew/internal/metrics"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// AsyncProtocol is a per-node protocol driven by the asynchronous engine.
// NextFrame is called once per local frame with the node-local frame index;
// the returned action holds for the whole frame (transmit during each slot,
// or listen throughout). Deliver is called for each clear message received
// during a listening frame.
type AsyncProtocol interface {
	NextFrame(frame int) radio.Action
	Deliver(msg radio.Message)
}

// AsyncNode configures one node of an asynchronous run.
type AsyncNode struct {
	// Protocol decides the node's frames; required.
	Protocol AsyncProtocol
	// Start is the real time at which the node's clock starts (its local
	// time zero). Offsets between nodes are arbitrary, as in the paper.
	Start float64
	// Drift is the node's clock drift process; nil means an ideal clock.
	Drift clock.DriftProcess
}

// AsyncConfig configures an asynchronous run. A run consumes its nodes: it
// advances their protocols and drift processes, so a config runs once.
type AsyncConfig struct {
	// Network is the topology with channel assignment; required.
	Network *topology.Network
	// Nodes holds per-node protocol/clock configuration, indexed by NodeID;
	// required.
	Nodes []AsyncNode
	// FrameLen is L, the local frame length (same for all nodes, measured
	// on each node's own clock); required, > 0.
	FrameLen float64
	// SlotsPerFrame divides each frame; 0 means the paper's 3. The ablation
	// experiment uses other values.
	SlotsPerFrame int
	// MaxFrames bounds the simulation: each node executes at most this many
	// frames (a static run stops earlier, once coverage is complete, unless
	// RunToMaxFrames is set); required, > 0.
	MaxFrames int
	// RunToMaxFrames keeps simulating after full coverage, so every node
	// executes its MaxFrames frames (used by adaptive protocols whose
	// behaviour continues past completion, such as termination, and by
	// experiments that audit steady-state behaviour). Default is to stop at
	// completion; a dynamic run always runs to MaxFrames.
	RunToMaxFrames bool
	// Loss, if non-nil, erases arriving transmission slots per receiver
	// listening frame with the model's probability (unreliable channels).
	Loss *LossModel
	// Observer, if non-nil, receives, as far as its EventMasker
	// subscription reaches, the events of each frame at the frame's end, in
	// global frame-end order: EventFrameStart, then, for a listening frame,
	// an EventDeliver for each clear reception and an EventFrameResolve.
	// Dynamic runs announce each epoch (enterEpoch) before the first frame
	// ending in it. The observer never changes how long a run lasts.
	// Compose several consumers with MultiObserver.
	Observer Observer
	// Scratch, if non-nil, supplies reusable per-run state — timelines,
	// frame tables, resolver buffers, the frame queue — so repeated runs on
	// one goroutine stop re-allocating it (see AsyncScratch for the
	// ownership and network-mutation contract). Nil means the run
	// allocates a private scratch; results are identical either way.
	Scratch *AsyncScratch
	// Dynamics, if non-nil, runs the simulation on a time-varying world:
	// each listening frame resolves against the reception structure of the
	// epoch containing the frame's start (see internal/dynamics; EpochLen is
	// in the run's real-time units). Asynchronous churn semantics differ
	// from synchronous: frame schedules never pause — clocks keep ticking —
	// but an inactive node appears in no epoch's candidate table, so it
	// neither delivers nor receives while out of the network. The coverage
	// target grows with each epoch's link set (births at the epoch start
	// time), so a dynamic run never stops before MaxFrames.
	Dynamics *dynamics.World
}

// AsyncResult reports an asynchronous run.
type AsyncResult struct {
	// Complete is true when every discoverable link was covered within the
	// horizon.
	Complete bool
	// CompletionTime is the real time at which the last link was covered;
	// valid only when Complete.
	CompletionTime float64
	// Ts is the time by which all nodes have started (max node start) — the
	// T_s of Theorems 9 and 10.
	Ts float64
	// Coverage is the oracle's link coverage record (times are real times
	// of the clear slot's end).
	Coverage *metrics.Coverage
	// MinFullFrames is the smallest per-node count of full frames lying
	// entirely within [Ts, CompletionTime] — the "M full frames since T_s"
	// of Theorem 9 — counting only frames within MaxFrames; valid only
	// when Complete.
	MinFullFrames int
}

// asyncFrame is one generated frame of one node.
type asyncFrame struct {
	start, end float64
	action     radio.Action
}

func (c *AsyncConfig) validate() error {
	if c.Network == nil {
		return fmt.Errorf("sim: async config missing network")
	}
	if len(c.Nodes) != c.Network.N() {
		return fmt.Errorf("sim: %d node configs for %d nodes", len(c.Nodes), c.Network.N())
	}
	for u, nc := range c.Nodes {
		if nc.Protocol == nil {
			return fmt.Errorf("sim: protocol for node %d is nil", u)
		}
	}
	if c.FrameLen <= 0 {
		return fmt.Errorf("sim: frame length %v must be positive", c.FrameLen)
	}
	if c.SlotsPerFrame < 0 {
		return fmt.Errorf("sim: slots per frame %d is negative", c.SlotsPerFrame)
	}
	if c.MaxFrames <= 0 {
		return fmt.Errorf("sim: max frames %d must be positive", c.MaxFrames)
	}
	if err := c.Loss.validate(); err != nil {
		return err
	}
	if c.Dynamics != nil && c.Dynamics.N() != c.Network.N() {
		return fmt.Errorf("sim: dynamics world has %d nodes, network %d", c.Dynamics.N(), c.Network.N())
	}
	return nil
}

// RunAsync executes an asynchronous simulation with online delivery:
// frames resolve in global frame-end order, and every clear message is
// delivered to its receiver's protocol before that protocol makes its next
// frame decision. Adaptive protocols — the termination wrapper
// core.AsyncTerminating, whose schedule depends on what it received — need
// exactly that; for the paper's oblivious protocols the tests pin the run to
// replays of decisions pre-generated up front.
//
// A node's protocol is asked for its next frame (NextFrame) when its
// previous frame resolves, so each node's decisions are drawn in ascending
// frame order from its own private rng stream. The scheduler pops the
// earliest unresolved frame end, ties to the lower NodeID, from a binary
// heap. When node u's frame pops, every other node's oldest unresolved
// frame ends at or after it (or the node has used its MaxFrames), and
// frames never skip time, so every transmission overlapping u's frame is
// known and the shared resolver can run. A listening frame's deliveries go
// out at its end, in resolveFrame's order: the decode point is the slot
// end, but the protocol can only act on it at its next frame boundary.
//
// A static run stops at the first frame that completes coverage, as
// RunSync does, unless RunToMaxFrames is set; a dynamic run always runs
// every node's MaxFrames, since a later epoch may still grow the target.
// A run that can stop reserves per-node state — timeline boundaries,
// drift memos, frame tables — for 64 frames and doubles it as the run
// needs more, so it never pays for the rest of MaxFrames; any other run
// reserves MaxFrames once.
//
//nd:hotpath
func RunAsync(cfg AsyncConfig) (*AsyncResult, error) {
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
	world := cfg.Dynamics
	stops := world == nil && !cfg.RunToMaxFrames
	reserved := cfg.MaxFrames
	if stops {
		reserved = min(firstReservedFrames, cfg.MaxFrames)
	}
	env.reserveFrames(cfg.Nodes, reserved)

	// Dynamic runs grow the coverage target as the run crosses epoch
	// boundaries (enterEpoch), starting with epoch 0, so every delivery
	// finds its link already targeted: a delivered link existed in the
	// epoch of its listening frame's start, which the advance below
	// reaches before that frame resolves.
	coverage := runCoverage(sc.target, world)
	mask := observerMask(cfg.Observer)
	wantStart, wantResolve := mask.Has(EventFrameStart), mask.Has(EventFrameResolve)
	var deliverObs Observer
	if mask.Has(EventDeliver) {
		deliverObs = cfg.Observer
	}
	nextEpoch := 1
	if world != nil {
		enterEpoch(cfg.Observer, mask, world.At(0), 0, 0, coverage)
	}

	// Prime every node with its first frame; the queue holds each node's
	// oldest unresolved frame end.
	queue := sc.frameQueue(n)
	for u := 0; u < n; u++ {
		if err := env.generate(u, cfg.Nodes[u].Protocol); err != nil {
			return nil, err
		}
		queue = append(queue, frameEnd{end: env.frames[u][0].end, node: topology.NodeID(u)})
	}
	queue.init()

	for len(queue) > 0 {
		// Only a popped node generates, one frame at a time, after its
		// last frame resolved: the popped frame is the node's last.
		uid := queue[0].node
		u := int(uid)
		f := len(env.frames[u]) - 1
		g := env.frames[u][f]

		// Cross epoch boundaries up to this frame's end before resolving
		// it: frame ends pop in ascending order, so the advance is
		// monotone, and any link this frame delivers on was born in an
		// epoch at or before the one containing its start.
		if world != nil {
			for last := world.EpochOf(g.end); nextEpoch <= last; nextEpoch++ {
				enterEpoch(cfg.Observer, mask, world.At(nextEpoch), float64(nextEpoch)*world.EpochLen(), 0, coverage)
			}
		}

		// The frame's events go out at its resolution point, its end;
		// EventFrameStart still carries the frame's real start time.
		if wantStart {
			cfg.Observer.OnEvent(Event{
				Kind: EventFrameStart, Time: g.start, Slot: f,
				Node: uid, Action: g.action,
			})
		}
		var mrow []maskWord
		if g.action.Mode == radio.Receive {
			mrow = env.maskFor(uid, g)
		}
		ds := env.resolveFrame(uid, g, mrow)
		for _, d := range ds {
			sc.deliver(d, cfg.Nodes, coverage, deliverObs)
		}
		if wantResolve && g.action.Mode == radio.Receive {
			cfg.Observer.OnEvent(Event{
				Kind: EventFrameResolve, Time: g.end, Slot: f,
				Node: uid, Action: g.action,
				Collected: env.lastCollected, Delivered: len(ds),
			})
		}
		if stops && coverage.Complete() {
			break
		}

		// Generate u's next frame: its protocol has now seen everything it
		// could have heard.
		next := f + 1
		if next == cfg.MaxFrames {
			queue.pop()
			continue
		}
		if next == reserved {
			reserved = min(2*reserved, cfg.MaxFrames)
			env.reserveFrames(cfg.Nodes, reserved)
		}
		if err := env.generate(u, cfg.Nodes[u].Protocol); err != nil {
			return nil, err
		}
		queue[0].end = env.frames[u][next].end
		queue.down(0)
	}
	return sc.finishRun(cfg.Nodes, ts, coverage, cfg.MaxFrames), nil
}

// firstReservedFrames is the per-node frame count a run that can stop
// early reserves first; each later reservation doubles it, so such a run
// reserves at most about twice the frames its completion needs.
const firstReservedFrames = 64

// frameEnd is one entry of RunAsync's scheduler: node's oldest unresolved
// frame ends at end.
type frameEnd struct {
	end  float64
	node topology.NodeID
}

// frameQueue is a binary min-heap of frame ends, ordered by before.
type frameQueue []frameEnd

// before orders frame ends by end, ties to the lower NodeID. Entries never
// compare equal (each node has one), so the pop sequence is fully
// determined.
func (a frameEnd) before(b frameEnd) bool {
	return a.end < b.end || a.end == b.end && a.node < b.node
}

// init establishes the heap order over the whole queue.
func (q frameQueue) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// down restores the heap order below entry i after its key grew, moving
// the entry down a hole rather than swapping it level by level.
//
//nd:hotpath
func (q frameQueue) down(i int) {
	x := q[i]
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(x) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = x
}

// pop removes the queue's first entry.
func (q *frameQueue) pop() {
	last := len(*q) - 1
	(*q)[0] = (*q)[last]
	*q = (*q)[:last]
	if last > 0 {
		q.down(0)
	}
}

// deliver is RunAsync's delivery tail: the receiver's protocol gets the
// sender's message — its shared availability set and, from a
// HeardReporter, a heard-list snapshot — coverage observes the link, and
// obs, if non-nil, gets an EventDeliver.
//
//nd:hotpath
func (sc *AsyncScratch) deliver(d delivery, nodes []AsyncNode, coverage *metrics.Coverage, obs Observer) {
	msg := radio.Message{From: d.from, Avail: sc.msgAvail[d.from]}
	if hr, ok := nodes[d.from].Protocol.(HeardReporter); ok {
		sc.heard = hr.AppendHeard(sc.heard[:0])
		msg.Heard = borrowHeard(sc.heard)
	}
	nodes[d.to].Protocol.Deliver(msg)
	coverage.Observe(topology.Link{From: d.from, To: d.to}, d.at)
	if obs != nil {
		obs.OnEvent(Event{
			Kind: EventDeliver, Time: d.at,
			From: d.from, To: d.to, Channel: d.ch,
		})
	}
}

// generate asks node v's protocol p for its next frame decision, validates
// it, and appends the frame to the env's frame and transmit bucket tables
// (appendFrame). RunAsync generates exclusively through it, in ascending
// frame order per node.
//
//nd:hotpath
func (env *asyncEnv) generate(v int, p AsyncProtocol) error {
	f := len(env.frames[v])
	a := p.NextFrame(f)
	if err := a.Validate(env.nw.Avail(topology.NodeID(v))); err != nil {
		return fmt.Errorf("sim: node %d frame %d: %w", v, f, err)
	}
	env.appendFrame(v, a)
	return nil
}

// runCoverage returns a run's coverage over the network's shared target
// index: the static target, or, for a dynamic world, an empty target that
// grows epoch by epoch (enterEpoch).
func runCoverage(target *metrics.TargetIndex, world *dynamics.World) *metrics.Coverage {
	if world == nil {
		return metrics.NewCoverageOn(target)
	}
	return metrics.NewGrowingCoverage(target)
}

// enterEpoch enters epoch ep at time at (slot is the synchronous slot, 0
// for asynchronous runs): it announces the boundary and its flips to obs
// as far as mask subscribes — EventEpoch, then every join, leave and
// channel loss, each list ascending — and grows the coverage target by the
// epoch's links, read off its candidate rows listener by listener and born
// at at (links persisting across epochs keep their original birth).
func enterEpoch(obs Observer, mask EventMask, ep *dynamics.Epoch, at float64, slot int, coverage *metrics.Coverage) {
	if mask.Has(EventEpoch) {
		obs.OnEvent(Event{Kind: EventEpoch, Time: at, Slot: slot, Epoch: ep.Index})
	}
	if mask.Has(EventJoin) {
		for _, v := range ep.Joined {
			obs.OnEvent(Event{Kind: EventJoin, Time: at, Slot: slot, Node: v, Epoch: ep.Index})
		}
	}
	if mask.Has(EventLeave) {
		for _, v := range ep.Left {
			obs.OnEvent(Event{Kind: EventLeave, Time: at, Slot: slot, Node: v, Epoch: ep.Index})
		}
	}
	if mask.Has(EventChannelLoss) {
		for _, l := range ep.Losses {
			obs.OnEvent(Event{Kind: EventChannelLoss, Time: at, Slot: slot, Node: l.Node, Channel: l.Channel, Epoch: ep.Index})
		}
	}
	for u, row := range ep.Cands {
		for _, c := range row {
			coverage.AddTarget(topology.Link{From: c.From, To: topology.NodeID(u)}, at)
		}
	}
}
