package sim

import (
	"fmt"
	"math"
	"slices"

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
	// frames (RunAsync may stop earlier, once coverage is complete; see
	// AsyncResult.FrameBudget); required, > 0.
	MaxFrames int
	// Loss, if non-nil, erases arriving transmission slots per receiver
	// listening frame with the model's probability (unreliable channels).
	Loss *LossModel
	// Observer, if non-nil, receives an EventFrameStart for every frame,
	// an EventFrameResolve for every listening frame, and an EventDeliver
	// for every clear reception (RunAsync skips kinds outside the
	// observer's EventMasker subscription). Emission order differs between
	// engines: RunAsync emits frame events node-major during its resolution
	// pass (ascending node, then frame index) and all deliveries afterwards
	// in chronological order; RunAsyncOnline emits events grouped per frame
	// in global frame-end order — EventFrameStart, that frame's
	// deliveries, then EventFrameResolve. Compose several consumers with
	// MultiObserver.
	Observer Observer
	// Scratch, if non-nil, supplies reusable per-run state — timelines,
	// frame tables, resolver buffers, delivery list — so repeated runs on
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
	// time). RunAsync resolves node-major and emits no dynamics events;
	// RunAsyncOnline processes chronologically and does.
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
	// of Theorem 9 — counting only the FrameBudget frames the run resolved;
	// valid only when Complete.
	MinFullFrames int
	// FrameBudget is the per-node frame count the run resolved: every
	// node's frames [0, FrameBudget) were decided and resolved. It is
	// AsyncConfig.MaxFrames unless RunAsync stopped early at completion.
	FrameBudget int
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

// RunAsync executes an asynchronous simulation.
//
// Frame decisions are generated incrementally: a node's protocol is asked
// for its next frame (NextFrame) when the resolution pass first needs it —
// either because the pass reached the frame itself, or because the frame
// might overlap a neighbor's listening frame under resolution. Each node's
// decisions are still drawn in ascending frame order from its own private
// rng stream, so the cross-node interleaving (which differs from the old
// generate-everything-first pass) is invisible in results. Resolution walks
// frames node-major and applies deliveries afterwards in chronological
// order, so the messages a protocol has seen when asked for a decision do
// not follow real time. Oblivious protocols never look, which is why the
// differential tests can pin this engine to RunAsyncOnline and to replays
// of pre-generated decisions; adaptive protocols need RunAsyncOnline.
//
// The node-major pass runs in frame windows: frames [0, 64) of every node,
// then the next 128, doubling. After each window the deliveries no later
// frame can precede — those ending by the earliest end of any node's last
// resolved frame — are applied, and the run stops once coverage is
// complete, like RunSync. The applied deliveries are a prefix of the full
// pass's chronological order, so coverage, completion time and neighbor
// tables are the full pass's; only FrameBudget records the stop, and
// protocols receive no deliveries after it. Windows require a static world,
// no loss and an observer subscribed to none of EventFrameStart,
// EventFrameResolve and EventDeliver; any other run resolves all MaxFrames
// frames of every node in one pass. Per-node state — timeline boundaries,
// drift memos, frame tables — is reserved window by window, so a run that
// stops early never pays for the rest of MaxFrames.
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

	// Phase 1: clocks. Drift draws happen lazily, in ascending slot order
	// per node's own drift rng, exactly as they did when frames were
	// generated eagerly. The boundary caches, drift memos and frame tables
	// are sized window by window in phase 2 (reserveFrames: values never
	// move, only capacity), so a windowed run that stops early never
	// reserves the rest of MaxFrames.
	timelines, ts, err := sc.clocks(cfg.Nodes, cfg.FrameLen, slotsPerFrame)
	if err != nil {
		return nil, err
	}

	// Phase 2: resolve receptions, generating frames on demand. generate
	// appends node v's next frame to its frame table and the transmit
	// bucket table; before a listening frame resolves, every candidate
	// transmitter is generated out to the frame's end, which is exactly
	// the coverage collectSlots needs.
	env := sc.envFor(nw, cfg.Dynamics, timelines, slotsPerFrame, cfg.Loss)
	for u := range cfg.Nodes {
		reserveNeighbors(cfg.Nodes[u].Protocol, env.cands[u])
	}
	mask := observerMask(cfg.Observer)
	wantStart, wantResolve := mask.Has(EventFrameStart), mask.Has(EventFrameResolve)
	var deliverObs Observer
	if mask.Has(EventDeliver) {
		deliverObs = cfg.Observer
	}
	// The pass runs in frame windows [lo, hi) so it can stop once coverage
	// is final. Windows need a static world (the target cannot grow), no
	// loss (the erasure draws are consumed node-major, so windows would
	// reorder them) and no frame or delivery subscription (their event
	// order is the full node-major pass); any other run takes one window
	// of MaxFrames, the full pass.
	window := cfg.MaxFrames
	if cfg.Dynamics == nil && (cfg.Loss == nil || cfg.Loss.Prob <= 0) && !wantStart && !wantResolve && deliverObs == nil {
		window = firstAsyncWindow
	}
	coverage := runCoverage(sc.target, cfg.Dynamics) // a dynamic target grows after the one window
	pending := sc.deliveryBuf()
	ahead := sc.aheadMarks(n)
	maxEnd := 0.0
	hi := 0
	for lo := 0; lo < cfg.MaxFrames; lo, window = hi, 2*window {
		hi = lo + min(window, cfg.MaxFrames-lo)
		env.reserveFrames(cfg.Nodes, hi)
		for u := 0; u < n; u++ {
			uid := topology.NodeID(u)
			for f := lo; f < hi; f++ {
				if len(env.frames[u]) <= f {
					if err := env.generate(u, cfg.Nodes[u].Protocol); err != nil {
						return nil, err
					}
				}
				g := env.frames[u][f]
				if g.end > maxEnd {
					maxEnd = g.end
				}
				if wantStart {
					cfg.Observer.OnEvent(Event{
						Kind: EventFrameStart, Time: g.start, Slot: f,
						Node: uid, Action: g.action,
					})
				}
				// A listening frame's candidate row drives the look-ahead
				// below, its compiled mask the resolution. The look-ahead
				// runs only when the frame ends past the horizon the
				// listener's last look-ahead on the same epoch's row left.
				var mrow []maskWord
				if g.action.Mode == radio.Receive {
					mrow = env.maskFor(uid, g)
					if e := env.epochOf(g); g.end > ahead[u].to || e != ahead[u].epoch {
						to, err := env.lookAhead(env.candsFor(uid, g), g.end, cfg.Nodes, cfg.MaxFrames)
						if err != nil {
							return nil, err
						}
						ahead[u] = aheadMark{to: to, epoch: e}
					}
				}
				ds := env.resolveFrame(uid, g, mrow)
				pending = append(pending, ds...)
				if wantResolve && g.action.Mode == radio.Receive {
					cfg.Observer.OnEvent(Event{
						Kind: EventFrameResolve, Time: g.end, Slot: f,
						Node: uid, Action: g.action,
						Collected: env.lastCollected, Delivered: len(ds),
					})
				}
			}
		}
		if cfg.Dynamics != nil {
			// Dynamic runs take one window, so maxEnd is final here: the
			// target is the union of the epoch link sets through the epoch
			// containing it, each link born at its first epoch's start.
			for e := 0; e <= cfg.Dynamics.EpochOf(maxEnd); e++ {
				enterEpoch(nil, 0, cfg.Dynamics.At(e), float64(e)*cfg.Dynamics.EpochLen(), 0, coverage)
			}
		}
		// Every frame before hi is resolved on every node. A delivery from
		// a later frame ends a slot inside it, strictly after its start,
		// which is at or after safe; so the pending deliveries up to safe
		// are exactly the next stretch of the run's chronological order.
		safe := math.Inf(1)
		if hi < cfg.MaxFrames {
			for u := 0; u < n; u++ {
				safe = min(safe, env.frames[u][hi-1].end)
			}
		}
		slices.SortFunc(pending, cmpDelivery)
		applied := sc.applyDeliveries(pending, safe, cfg.Nodes, coverage, deliverObs)
		pending = pending[:copy(pending, pending[applied:])]
		if coverage.Complete() {
			break
		}
	}

	sc.deliveries = pending[:0] // keep any capacity the run grew
	return sc.finishRun(cfg.Nodes, ts, coverage, hi), nil
}

// cmpDelivery orders deliveries chronologically, ties broken by receiver
// then sender. Distinct deliveries never compare equal — a sender delivers
// at most once per receiver frame and its slot end times are distinct — so
// the unstable sort is deterministic (the asynchronous engines' byte-for-
// byte reproducibility rests on this). A named comparator keeps the sort
// closure-free on the hot path.
func cmpDelivery(a, b delivery) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	case a.to < b.to:
		return -1
	case a.to > b.to:
		return 1
	case a.from < b.from:
		return -1
	case a.from > b.from:
		return 1
	default:
		return 0
	}
}

// firstAsyncWindow is the frame count of RunAsync's first window; each
// later window doubles, so a run resolves at most about twice the frames
// its completion needs, in O(log MaxFrames) windows.
const firstAsyncWindow = 64

// applyDeliveries applies, through deliver, the leading deliveries of ds
// (sorted by cmpDelivery) whose time is at most safe, and returns how many
// it applied.
//
//nd:hotpath
func (sc *AsyncScratch) applyDeliveries(ds []delivery, safe float64, nodes []AsyncNode, coverage *metrics.Coverage, obs Observer) int {
	for i, d := range ds {
		if d.at > safe {
			return i
		}
		sc.deliver(d, nodes, coverage, obs)
	}
	return len(ds)
}

// deliver is both asynchronous engines' one delivery tail: the receiver's
// protocol gets the sender's message — its shared availability set and,
// from a HeardReporter, a heard-list snapshot — coverage observes the
// link, and obs, if non-nil, gets an EventDeliver.
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

// lookAhead generates every sender in row out to end, or to its budget of
// frames, as a listening frame ending at end needs before it resolves. It
// returns the horizon: the earliest last-frame end among the senders with
// budget left. Frames only grow, so until a listening frame on the same
// row ends past the horizon, a look-ahead would generate nothing.
//
//nd:hotpath
func (env *asyncEnv) lookAhead(row []topology.Candidate, end float64, nodes []AsyncNode, budget int) (float64, error) {
	horizon := math.Inf(1)
	for _, cand := range row {
		w := int(cand.From)
		for len(env.frames[w]) < budget {
			if last := len(env.frames[w]); last > 0 && env.frames[w][last-1].end >= end {
				break
			}
			if err := env.generate(w, nodes[w].Protocol); err != nil {
				return 0, err
			}
		}
		if k := len(env.frames[w]); k < budget {
			horizon = min(horizon, env.frames[w][k-1].end)
		}
	}
	return horizon, nil
}

// generate asks node v's protocol p for its next frame decision, validates
// it, and appends the frame to the env's frame and transmit bucket tables
// (appendFrame; a table grows past its reservation when the look-ahead
// outruns the window being resolved). Both asynchronous engines generate
// exclusively through it, always in ascending frame order per node.
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
