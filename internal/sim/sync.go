// Package sim provides the two simulation engines that execute discovery
// protocols on a network: a synchronous slotted engine and an asynchronous
// real-time engine driven by drifting per-node clocks.
//
// Both engines implement the paper's communication semantics exactly:
//
//   - Half duplex: a node in transmit mode receives nothing.
//   - No collision detection: a listener with two or more of its neighbors
//     transmitting on its channel hears only noise.
//   - Channel-scoped propagation: node v's transmission on channel c reaches
//     node u iff v is a neighbor of u and c ∈ span(u,v). Non-neighbors never
//     interfere (interference range equals communication range).
//
// Engines drive protocols through narrow interfaces (SyncProtocol,
// AsyncProtocol), report results through metrics.Coverage, and expose what
// happened through one typed observability seam: an Observer attached to
// the run configuration receives Event values (see observe.go); the trace,
// metrics and experiment layers plug in through its adapters.
//
// Decision generation is incremental: both engines call each node's
// protocol (SyncProtocol.Step, AsyncProtocol.NextFrame) for its next
// decision at the moment the simulation first needs it, after every
// message the node could have heard before it, which is what lets
// time-varying runs (the Dynamics config fields) pause churned-out nodes
// without desynchronizing their private rng streams, and what adaptive
// protocols (termination) need. Because every protocol draws only from its
// own per-node stream, the call order across nodes is invisible in
// results: for oblivious protocols (the paper's algorithms) the tests pin
// the lazy engines to replays of decisions pre-generated node-major.
//
// RunSync runs every slot through one pipeline (sync_tiled.go) of two
// rounds over NodeID chunks: nodes step and set their bits in NodeID-space
// transmitter word masks, and each listener's candidate-mask row — the
// one packed table, which the asynchronous engines read too — is walked
// against its channel's mask. A run with a Tiling that passes its gate
// splits the nodes into chunks starting on multiples of 64 and runs each
// round on a worker pool; every other run uses a single chunk holding
// every node, the single tile, resolved inline in ascending NodeID order,
// which keeps the per-listener event and loss-draw order.
//
// Both engines stop once coverage is complete. RunSync checks after every
// slot (unless RunToMaxSlots is set or a dynamic world may still grow the
// target). RunAsync resolves frames in global frame-end order and checks
// after every frame (unless RunToMaxFrames is set or the world is
// dynamic). An observer never changes how long a run lasts.
package sim

import (
	"fmt"
	"runtime"

	"m2hew/internal/dynamics"
	"m2hew/internal/harness/tilepool"
	"m2hew/internal/metrics"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// HeardReporter is optionally implemented by protocols that piggyback
// their discovered in-neighbor list on outgoing messages (the
// acknowledgment extension for asymmetric graphs, core.Acknowledging).
// Engines query it at delivery time, so the list reflects everything the
// sender had heard before the delivered transmission. AppendHeard appends
// the list, ascending, to dst and returns the extended slice; it must only
// read the reporter's state: a parallel run's resolve round queries one
// sender from several workers at once, each delivering to its own NodeID
// chunk's listeners. The engines pass a buffer they reuse across
// deliveries (one per NodeID chunk) and lend it to the receiver as
// radio.Message.Heard for the Deliver call only.
type HeardReporter interface {
	AppendHeard(dst []topology.NodeID) []topology.NodeID
}

// SyncProtocol is a per-node protocol driven by the synchronous engine.
// Step is called once per slot with the node-local slot index (0 on the
// node's first active slot); Deliver is called for each clear message the
// node receives.
type SyncProtocol interface {
	Step(localSlot int) radio.Action
	Deliver(msg radio.Message)
}

// SyncConfig configures a synchronous run.
type SyncConfig struct {
	// Network is the topology with channel assignment; required.
	Network *topology.Network
	// Protocols holds one protocol per node, indexed by NodeID; required.
	Protocols []SyncProtocol
	// StartSlots optionally delays nodes: node u is quiet before slot
	// StartSlots[u] and calls Step with localSlot = slot − StartSlots[u]
	// afterwards. Nil means all nodes start at slot 0.
	StartSlots []int
	// MaxSlots bounds the simulation; required, > 0.
	MaxSlots int
	// RunToMaxSlots keeps simulating after full coverage (used by
	// experiments that audit steady-state behaviour). Default is to stop at
	// completion.
	RunToMaxSlots bool
	// Loss, if non-nil, erases arriving transmissions per receiver with the
	// model's probability (unreliable channels).
	Loss *LossModel
	// Observer, if non-nil, receives every engine event in simulation
	// order: EventSlot once per slot, then per listener (ascending NodeID)
	// exactly one of EventDeliver, EventCollision or EventIdle. Compose
	// several consumers with MultiObserver.
	Observer Observer
	// Scratch, if non-nil, supplies reusable per-run buffers so repeated
	// runs on one goroutine stop re-allocating them (see SyncScratch for
	// the ownership and network-mutation contract). Nil means the run
	// allocates a private scratch; results are identical either way.
	Scratch *SyncScratch
	// Tiling, if non-nil, requests the parallel path: each slot runs as
	// two rounds (decide, resolve) over NodeID chunks that start on
	// multiples of 64, on a fork-join worker pool (see sync_tiled.go),
	// byte-identical to the single-tile run at matched seed. The engine
	// reads nothing from the tiling but its node count, which must match
	// the network's; any network qualifies, whatever its coordinates. The
	// parallel path engages only when its gate holds — static world,
	// loss-free, no per-listener event subscription; otherwise the run
	// takes the single tile that every run without a Tiling takes,
	// deterministically. Workers call different nodes' protocols
	// concurrently, which is sound because each protocol touches only its
	// own state and private rng stream.
	Tiling *topology.Tiling
	// TileWorkers bounds the parallel path's parallelism (caller
	// included), capped at the chunk count. 0 picks GOMAXPROCS; 1 runs
	// every round serially on the caller (useful for differential tests).
	// The NodeID chunk count follows from it and the node count: four
	// chunks per worker, of at least 256 nodes. Ignored without Tiling.
	// Worker count never affects results, only wall-clock.
	TileWorkers int
	// Dynamics, if non-nil, runs the simulation on a time-varying world:
	// reception structure, activity and channel availability follow the
	// world's epoch schedule (see internal/dynamics). Nodes inactive in an
	// epoch are quiet without consuming a decision — their local slot
	// counter, and hence their private rng stream, pauses with them.
	// Protocol actions still validate against the static A(u): primary-user
	// blocking shrinks link spans, not the protocol's decision space. The
	// coverage target starts empty and grows with each epoch's link set
	// (births at the epoch's first slot), so Complete is reachable only
	// when links stop appearing; discovery latency comes from
	// Coverage.Latencies. Mutually exclusive with StartSlots — churn
	// schedules subsume staggered starts. Dynamic runs resolve on the
	// single tile over candidate masks recompiled in place whenever the
	// epoch's candidate table changes.
	Dynamics *dynamics.World
}

// SyncResult reports a synchronous run.
type SyncResult struct {
	// Complete is true when every discoverable link was covered.
	Complete bool
	// CompletionSlot is the 0-based global slot during which the last link
	// was covered; valid only when Complete.
	CompletionSlot int
	// SlotsSimulated is the number of slots executed.
	SlotsSimulated int
	// Coverage is the oracle's link coverage record (times are slot
	// indexes).
	Coverage *metrics.Coverage
}

func (c *SyncConfig) validate() error {
	if c.Network == nil {
		return fmt.Errorf("sim: sync config missing network")
	}
	n := c.Network.N()
	if len(c.Protocols) != n {
		return fmt.Errorf("sim: %d protocols for %d nodes", len(c.Protocols), n)
	}
	for u, p := range c.Protocols {
		if p == nil {
			return fmt.Errorf("sim: protocol for node %d is nil", u)
		}
	}
	if c.StartSlots != nil && len(c.StartSlots) != n {
		return fmt.Errorf("sim: %d start slots for %d nodes", len(c.StartSlots), n)
	}
	for u, s := range c.StartSlots {
		if s < 0 {
			return fmt.Errorf("sim: node %d has negative start slot %d", u, s)
		}
	}
	if c.MaxSlots <= 0 {
		return fmt.Errorf("sim: max slots %d must be positive", c.MaxSlots)
	}
	if c.Tiling != nil && c.Tiling.N() != n {
		return fmt.Errorf("sim: tiling partitions %d nodes, network has %d", c.Tiling.N(), n)
	}
	if c.TileWorkers < 0 {
		return fmt.Errorf("sim: tile workers %d must be non-negative", c.TileWorkers)
	}
	if err := c.Loss.validate(); err != nil {
		return err
	}
	if c.Dynamics != nil {
		if c.StartSlots != nil {
			return fmt.Errorf("sim: dynamics and start slots are mutually exclusive (churn schedules subsume staggered starts)")
		}
		if c.Dynamics.N() != n {
			return fmt.Errorf("sim: dynamics world has %d nodes, network %d", c.Dynamics.N(), n)
		}
		if _, err := c.Dynamics.EpochSlots(); err != nil {
			return err
		}
	}
	return nil
}

// RunSync executes a synchronous simulation. It returns an error for
// configuration mistakes and for protocol actions that violate the radio
// model (e.g. tuning outside the node's available set).
//
//nd:hotpath
func RunSync(cfg SyncConfig) (*SyncResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nw := cfg.Network
	n := nw.N()
	world := cfg.Dynamics

	// Reception-resolution state, built (or borrowed from the scratch) once
	// per run and reused across slots:
	//
	//   - cands[u] lists the only transmitters listener u can ever decode
	//     (adjacency, direction and link span resolved up front by the
	//     topology layer); the slot pipeline reads it compiled into
	//     candidate masks (see syncRun for the two run shapes);
	//   - msgAvail[v] is the one immutable copy of A(v) shared by every
	//     message from v; see radio.Message for the ownership contract.
	sc := cfg.Scratch
	if sc == nil {
		sc = NewSyncScratch()
	}
	tablesHit := sc.load(nw)
	cands, channels := sc.cands, sc.channels
	coverage := runCoverage(sc.target, world) // a dynamic target grows at epoch boundaries below
	epochSlots := 0
	if world != nil {
		epochSlots, _ = world.EpochSlots() // error ruled out by validate
	}
	//ndlint:ignore hotalloc one result allocation per run, not per slot
	result := &SyncResult{Coverage: coverage}

	var run syncRun
	run.nw = nw
	run.protos = cfg.Protocols
	run.obs = cfg.Observer
	run.loss = cfg.Loss
	run.coverage = coverage
	run.msgAvail = sc.msgAvail
	run.startSlots = cfg.StartSlots
	run.actions = sc.actionBuf(n)
	if channels <= 64 {
		// Every channel ID fits one word: flatten each node's availability
		// to a single mask so a decision validates with one bit test. The
		// contents are recomputed per run (cheap, O(n)); only the buffer
		// is reused.
		run.avail1 = sc.availBuf(n)
		for u := 0; u < n; u++ {
			run.avail1[u] = 0
			if w := nw.Avail(topology.NodeID(u)).Words(); len(w) > 0 {
				run.avail1[u] = w[0]
			}
		}
	}
	// The observer's subscription (EventMasker; AllEvents when undeclared)
	// gates each emission site, and an observer subscribed to no
	// per-listener kind frees the engine from the per-listener event order
	// entirely — such runs may take the parallel path exactly like
	// observerless ones (slot and epoch events are unaffected: every run
	// emits them identically).
	mask := observerMask(cfg.Observer)
	// The internals sink is resolved once; tallying per slot is gated on it
	// so observerless runs pay one dead boolean test. A sink with a zero
	// EventMask leaves every path decision below untouched (see
	// internals.go for the non-perturbation contract).
	sink, _ := cfg.Observer.(InternalsSink)
	run.tallyInternals = sink != nil
	run.wantDeliver = mask.Has(EventDeliver)
	run.wantColl = mask.Has(EventCollision)
	run.wantIdle = mask.Has(EventIdle)
	run.wantSlot = mask.Has(EventSlot)
	perListener := run.wantDeliver || run.wantColl || run.wantIdle
	// The parallel path needs a static, loss-free run with no per-listener
	// events. Worker setup is per-run: the pool's goroutines live exactly
	// as long as the run.
	lossFree := cfg.Loss == nil || cfg.Loss.Prob <= 0
	run.tiled = cfg.Tiling != nil && world == nil && lossFree && !perListener
	chunks := 1
	if run.tiled {
		workers := cfg.TileWorkers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		chunks = chunkCount(n, workers)
		// Workers beyond the chunk count would never find work.
		if workers = min(workers, chunks); workers > 1 {
			run.startPool(workers)
		}
	}
	run.words = (n + 63) / 64
	run.chunks, run.tx, run.txSlot = sc.slotState(n, channels, chunks)
	for i := range run.chunks {
		ch := &run.chunks[i]
		ch.shard = coverage.Shard(ch.lo, ch.hi)
	}
	defer run.release()
	// A static run resolves on the network's candidate masks, compiled at
	// their first use; a dynamic run compiles each epoch's below.
	if world == nil {
		run.masks = sc.candRows()
	} else {
		run.masks = &sc.epochMasks
	}
	// run.hrs stays nil unless some protocol reports heard-lists, so plain
	// runs skip the per-delivery probe.
	for u, p := range cfg.Protocols {
		if hr, ok := p.(HeardReporter); ok {
			if run.hrs == nil {
				run.hrs = sc.heardReporters(n)
			}
			run.hrs[u] = hr
		}
		reserveNeighbors(p, cands[u])
	}

	// Dynamic-run state: the current epoch snapshot (its candidate table,
	// compiled in run.masks, replaces the static one)
	// and per-node local-slot counters — a node's decision index is its
	// count of active slots, not the global slot, so a churned node's
	// private rng stream pauses while it is out of the network.
	var cur *dynamics.Epoch
	if world != nil {
		run.locals = sc.localSlotBuf(n)
	}

	for slot := 0; slot < cfg.MaxSlots; slot++ {
		// Epoch boundary: swap in the new snapshot, then announce the
		// boundary and grow the coverage target (enterEpoch).
		if world != nil {
			if e := slot / epochSlots; cur == nil || (e != cur.Index && e < world.Horizon()) {
				prev := cur
				cur = world.At(e)
				run.active = cur.Active
				// Unchanged epochs share their predecessor's table, so the
				// masks are recompiled only when the table itself changed.
				if prev == nil || !sameTable(cur.Cands, prev.Cands) {
					run.masks.compile(cur.Cands, channels)
				}
				enterEpoch(cfg.Observer, mask, cur, float64(slot), slot, coverage)
			}
		}

		// One slot of the pipeline: protocol steps, the slot event,
		// resolution and delivery. The loss-model draw order is part of the
		// reproducibility contract: exactly one draw per candidate that
		// transmits on the listener's channel over an operating link,
		// consumed in ascending candidate order, stopping at the second
		// surviving transmission (resolveSlotNaive in the differential
		// tests re-states this order from first principles; the single
		// tile's resolve round preserves it).
		if err := run.runSlot(slot); err != nil {
			return nil, err
		}

		result.SlotsSimulated = slot + 1
		// Early stop requires a quiescent world: a dynamic run may grow new
		// target links at a later epoch, so full coverage now is not final
		// unless no structural change remains.
		if coverage.Complete() && !cfg.RunToMaxSlots && (cur == nil || cur.Quiescent) {
			break
		}
	}

	if coverage.Complete() {
		result.Complete = true
		at, _ := coverage.CompletionTime()
		result.CompletionSlot = int(at)
	}
	if sink != nil {
		sink.OnInternals(run.finalizeInternals(int64(result.SlotsSimulated), tablesHit))
	}
	return result, nil
}

// startPool starts the parallel run's worker pool and binds its two round
// closures, once per run.
func (r *syncRun) startPool(workers int) {
	r.pool = tilepool.New(workers)
	r.fnDecide = func(ci int) { r.decide(ci) }
	r.fnResolve = func(ci int) { r.resolve(ci) }
}

// release stops the run's worker pool, if any, and drops the chunks'
// coverage shards: the scratch keeps the chunks, and must not keep the
// run's coverage alive with them.
func (r *syncRun) release() {
	if r.pool != nil {
		r.pool.Close()
	}
	for i := range r.chunks {
		r.chunks[i].shard = metrics.Shard{}
	}
}

// finalizeInternals completes the run's internals report. The path is
// fixed per run, so every slot lands on TiledSlots on a parallel run and
// on KernelSlots on the single tile. tablesHit reports scratch
// network-table reuse.
func (r *syncRun) finalizeInternals(slots int64, tablesHit bool) Internals {
	in := Internals{
		SlotsSimulated:    slots,
		StepperBatches:    r.batches,
		StepperBatchNodes: r.batchNodes,
		MaxStepperBatch:   r.maxBatch,
	}
	if r.tiled {
		in.TiledSlots = slots
	} else {
		in.KernelSlots = slots
	}
	if tablesHit {
		in.ScratchTableHits = 1
	} else {
		in.ScratchTableMisses = 1
	}
	return in
}

// sameTable reports whether two candidate tables are the same table — the
// identity a dynamics.World gives an epoch that shares its predecessor's.
func sameTable(a, b [][]topology.Candidate) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
