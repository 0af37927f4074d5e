package telemetry

import (
	"math"
	"sync"
	"time"

	"m2hew/internal/radio"
	"m2hew/internal/sim"
)

// DefaultLatencyBounds is the discovery-latency bucket ladder: powers of
// two from 1 to 8192, in the run's native time unit (slots for the
// synchronous engine, real time units for the asynchronous ones).
var DefaultLatencyBounds = ExponentialBounds(1, 2, 14)

// DefaultTimingBounds is the trial wall-time / queue-delay bucket ladder,
// in seconds.
var DefaultTimingBounds = []float64{
	1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10, 30,
}

// RunObserver derives one run's telemetry series from the engine event
// stream. It implements sim.Observer, is owned by a single engine
// goroutine (create one per run or trial), and allocates nothing per
// event: every tally is a plain field or fixed slice indexed by node or
// channel ID. Merge finished runs into a shared Aggregate with
// Aggregate.TrialDone, or read them directly with Stats.
type RunObserver struct {
	nodes    int
	channels int

	slots         int64
	frames        int64
	transmissions int64
	collisions    int64
	idle          int64
	deliveries    int64
	duplicates    int64
	frameTxSlots  int64 // transmission slots heard by resolved listening frames
	frameResolved int64 // deliveries resolved by listening frames
	mismatched    int64 // events with out-of-range node or channel IDs
	epochs        int64 // dynamic-run epoch boundaries
	joins         int64 // nodes joining at epoch boundaries
	leaves        int64 // nodes leaving at epoch boundaries
	channelLosses int64 // channels lost to primary users at epoch boundaries

	channelTx []int64 // transmissions per channel ID

	internals sim.Internals // engine-internals report (sync engine)

	latBounds  []float64  // shared, immutable
	latBuckets [][]uint64 // per receiving node: len(latBounds)+1
	latSum     []float64  // per receiving node
	seen       []bool     // nodes*nodes link bitmap for duplicate detection
}

// NewRunObserver sizes an observer for a network with the given node count
// and channel ID space (max channel ID + 1). Discovery latencies land in
// latencyBounds buckets; nil means DefaultLatencyBounds.
func NewRunObserver(nodes, channels int, latencyBounds []float64) *RunObserver {
	if nodes < 0 {
		nodes = 0
	}
	if channels < 0 {
		channels = 0
	}
	if latencyBounds == nil {
		latencyBounds = DefaultLatencyBounds
	}
	o := &RunObserver{
		nodes:      nodes,
		channels:   channels,
		channelTx:  make([]int64, channels),
		latBounds:  latencyBounds,
		latBuckets: make([][]uint64, nodes),
		latSum:     make([]float64, nodes),
		seen:       make([]bool, nodes*nodes),
	}
	for u := range o.latBuckets {
		o.latBuckets[u] = make([]uint64, len(latencyBounds)+1)
	}
	return o
}

// OnEvent implements sim.Observer.
//
//nd:hotpath
func (o *RunObserver) OnEvent(e sim.Event) {
	switch e.Kind {
	case sim.EventSlot:
		o.slots++
		for _, a := range e.Actions {
			if a.Mode != radio.Transmit {
				continue
			}
			o.countTx(int(a.Channel))
		}
	case sim.EventDeliver:
		o.deliveries++
		from, to := int(e.From), int(e.To)
		if from < 0 || from >= o.nodes || to < 0 || to >= o.nodes {
			o.mismatched++
			return
		}
		link := from*o.nodes + to
		if o.seen[link] {
			// A re-delivery of an already-covered link: the engine-level
			// analog of the neighbor-table records core.Record suppresses
			// as duplicates.
			o.duplicates++
			return
		}
		o.seen[link] = true
		o.observeLatency(to, e.Time)
	case sim.EventCollision:
		o.collisions++
	case sim.EventIdle:
		o.idle++
	case sim.EventFrameStart:
		o.frames++
		if e.Action.Mode == radio.Transmit {
			o.countTx(int(e.Action.Channel))
		}
	case sim.EventFrameResolve:
		o.frameTxSlots += int64(e.Collected)
		o.frameResolved += int64(e.Delivered)
	case sim.EventEpoch:
		o.epochs++
	case sim.EventJoin:
		o.joins++
	case sim.EventLeave:
		o.leaves++
	case sim.EventChannelLoss:
		o.channelLosses++
	}
}

// OnInternals implements sim.InternalsSink: the engine's once-per-run
// internals report (resolver path, stepper batching, scratch table reuse)
// is retained for Stats and the Aggregate merge. Attaching a RunObserver
// subscribes to every event kind, so the report will attribute the run's
// slots to the single tile's kernel path — the path that
// actually executed under observation; see sim/internals.go.
func (o *RunObserver) OnInternals(in sim.Internals) {
	o.internals.Merge(in)
}

//nd:hotpath
func (o *RunObserver) countTx(ch int) {
	o.transmissions++
	if ch < 0 || ch >= len(o.channelTx) {
		o.mismatched++
		return
	}
	o.channelTx[ch]++
}

//nd:hotpath
func (o *RunObserver) observeLatency(node int, t float64) {
	b := o.latBuckets[node]
	lo, hi := 0, len(o.latBounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.latBounds[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b[lo]++
	o.latSum[node] += t
}

// RunStats is a copy of one run's derived series.
type RunStats struct {
	// Slots counts synchronous slots; Frames counts asynchronous local
	// frames (one of the two is zero for any given engine).
	Slots  int64 `json:"slots"`
	Frames int64 `json:"frames"`
	// Transmissions counts transmit decisions: transmit slots
	// (synchronous) or transmit frames (asynchronous).
	Transmissions int64 `json:"transmissions"`
	// Collisions counts synchronous listening slots destroyed by
	// interference; IdleListens counts synchronous listening slots that
	// heard nothing at all.
	Collisions  int64 `json:"collisions"`
	IdleListens int64 `json:"idleListens"`
	// Deliveries counts clear receptions; Duplicates is the subset that
	// re-covered an already-covered link (duplicate-suppressed records).
	Deliveries int64 `json:"deliveries"`
	Duplicates int64 `json:"duplicates"`
	// FrameTxSlots / FrameDeliveries aggregate the asynchronous resolver's
	// per-listening-frame accounting: transmission slots heard, deliveries
	// resolved.
	FrameTxSlots    int64 `json:"frameTxSlots"`
	FrameDeliveries int64 `json:"frameDeliveries"`
	// Mismatched counts events whose node or channel IDs fell outside the
	// observer's sizing — always 0 when the observer was sized from the
	// run's own network.
	Mismatched int64 `json:"mismatched"`
	// Epochs, Joins, Leaves and ChannelLosses tally a dynamic run's epoch
	// boundaries and their membership/spectrum flips; all zero for static
	// runs.
	Epochs        int64 `json:"epochs,omitempty"`
	Joins         int64 `json:"joins,omitempty"`
	Leaves        int64 `json:"leaves,omitempty"`
	ChannelLosses int64 `json:"channelLosses,omitempty"`
	// Internals is the synchronous engine's internals report (resolver-path
	// slot attribution, stepper batch sizes, scratch table reuse); the zero
	// value for asynchronous runs.
	Internals sim.Internals `json:"internals,omitempty"`
	// ChannelTx is Transmissions split by channel ID.
	ChannelTx []int64 `json:"channelTx"`
	// NodeLatency holds one discovery-latency histogram per receiving
	// node: the Time of each first coverage of an inbound link.
	NodeLatency []HistogramSnapshot `json:"nodeLatency"`
}

// Utilization returns per-channel offered load: transmissions on the
// channel divided by the number of time units simulated (slots for
// synchronous runs, frames for asynchronous runs). Values above 1 mean
// more than one node transmitted per unit on average.
func (s RunStats) Utilization() []float64 {
	units := s.Slots + s.Frames
	if units == 0 {
		return make([]float64, len(s.ChannelTx))
	}
	out := make([]float64, len(s.ChannelTx))
	for c, n := range s.ChannelTx {
		out[c] = float64(n) / float64(units)
	}
	return out
}

// Stats copies the observer's current series.
func (o *RunObserver) Stats() RunStats {
	s := RunStats{
		Slots:           o.slots,
		Frames:          o.frames,
		Transmissions:   o.transmissions,
		Collisions:      o.collisions,
		IdleListens:     o.idle,
		Deliveries:      o.deliveries,
		Duplicates:      o.duplicates,
		FrameTxSlots:    o.frameTxSlots,
		FrameDeliveries: o.frameResolved,
		Mismatched:      o.mismatched,
		Epochs:          o.epochs,
		Joins:           o.joins,
		Leaves:          o.leaves,
		ChannelLosses:   o.channelLosses,
		Internals:       o.internals,
		ChannelTx:       append([]int64(nil), o.channelTx...),
		NodeLatency:     make([]HistogramSnapshot, o.nodes),
	}
	for u := 0; u < o.nodes; u++ {
		var count uint64
		for _, c := range o.latBuckets[u] {
			count += c
		}
		s.NodeLatency[u] = HistogramSnapshot{
			Bounds: o.latBounds,
			Counts: append([]uint64(nil), o.latBuckets[u]...),
			Count:  count,
			Sum:    o.latSum[u],
		}
	}
	return s
}

// Aggregate merges RunObserver series across concurrent trials into a
// Registry and implements the harness's Instrument seam. All methods are
// safe for concurrent use from the trial pool; the flush path (TrialDone)
// touches a mutex only to grow lazily-registered per-channel counters and
// per-node histograms, never per event.
type Aggregate struct {
	reg *Registry

	trials          *Counter
	slots           *Counter
	frames          *Counter
	transmissions   *Counter
	collisions      *Counter
	idle            *Counter
	deliveries      *Counter
	duplicates      *Counter
	frameTxSlots    *Counter
	frameDeliveries *Counter
	mismatched      *Counter
	epochs          *Counter
	joins           *Counter
	leaves          *Counter
	channelLosses   *Counter
	latency         *Histogram

	// Engine-internals series (sim.Internals; sync engine only).
	tiledSlots      *Counter
	kernelSlots     *Counter
	stepperBatches  *Counter
	stepperNodes    *Counter
	scratchHits     *Counter
	scratchMisses   *Counter
	maxStepperBatch *Gauge

	queueDelay *Histogram
	wall       *Histogram

	latBounds []float64

	mu         sync.Mutex
	channelTx  []*Counter   // lazily grown to the widest network seen
	perNode    []*Histogram // lazily grown, only when perNodeMax > 0
	perNodeMax int
}

// AggregateOption configures NewAggregate.
type AggregateOption func(*Aggregate)

// PerNodeLatency also exports one nd_node_discovery_latency{node=…}
// histogram per node ID up to max. Off by default: per-node series are
// meaningful for a fixed scenario (cmd/ndperf), not when trials span
// networks of different sizes (cmd/ndbench -all).
func PerNodeLatency(max int) AggregateOption {
	return func(a *Aggregate) { a.perNodeMax = max }
}

// NewAggregate registers the run-telemetry metric set in reg and returns
// the aggregate that feeds it.
func NewAggregate(reg *Registry, opts ...AggregateOption) *Aggregate {
	a := &Aggregate{reg: reg, latBounds: DefaultLatencyBounds}
	for _, opt := range opts {
		opt(a)
	}
	a.trials = reg.Counter("nd_trials_total", "engine runs merged into this aggregate")
	a.slots = reg.Counter("nd_slots_total", "synchronous slots simulated")
	a.frames = reg.Counter("nd_frames_total", "asynchronous local frames simulated")
	a.transmissions = reg.Counter("nd_transmissions_total", "transmit decisions (slots or frames)")
	a.collisions = reg.Counter("nd_collisions_total", "synchronous listening slots destroyed by interference")
	a.idle = reg.Counter("nd_idle_listens_total", "synchronous listening slots that heard nothing")
	a.deliveries = reg.Counter("nd_deliveries_total", "clear receptions")
	a.duplicates = reg.Counter("nd_duplicates_total", "re-deliveries of already-covered links (duplicate-suppressed records)")
	a.frameTxSlots = reg.Counter("nd_frame_tx_slots_total", "transmission slots heard by resolved listening frames")
	a.frameDeliveries = reg.Counter("nd_frame_deliveries_total", "deliveries resolved by listening frames")
	a.mismatched = reg.Counter("nd_mismatched_events_total", "events with out-of-range node or channel IDs")
	a.epochs = reg.Counter("nd_epochs_total", "dynamic-run epoch boundaries crossed")
	a.joins = reg.Counter("nd_joins_total", "nodes joining the network at epoch boundaries")
	a.leaves = reg.Counter("nd_leaves_total", "nodes leaving the network at epoch boundaries")
	a.channelLosses = reg.Counter("nd_channel_losses_total", "channels vacated to primary users at epoch boundaries")
	a.tiledSlots = reg.Counter("nd_resolver_tiled_slots_total", "sync slots resolved on the parallel path")
	a.kernelSlots = reg.Counter("nd_resolver_kernel_slots_total", "sync slots resolved on the single tile (runs without a tiling, or whose gate fails)")
	a.stepperBatches = reg.Counter("nd_stepper_batches_total", "sync decision rounds (one per slot)")
	a.stepperNodes = reg.Counter("nd_stepper_batch_nodes_total", "protocol steps across all sync decision rounds")
	a.scratchHits = reg.Counter("nd_scratch_table_hits_total", "sync runs that reused the scratch's cached network tables")
	a.scratchMisses = reg.Counter("nd_scratch_table_misses_total", "sync runs that rebuilt the scratch's network tables")
	a.maxStepperBatch = reg.Gauge("nd_stepper_batch_max", "largest single sync decision round seen")
	a.latency = reg.Histogram("nd_discovery_latency", "first-coverage instants of discoverable links (slots or real time)", a.latBounds)
	a.queueDelay = reg.Histogram("nd_trial_queue_seconds", "delay between harness run start and trial pickup", DefaultTimingBounds)
	a.wall = reg.Histogram("nd_trial_wall_seconds", "per-trial wall time on the harness pool", DefaultTimingBounds)
	return a
}

// TrialObserver returns a fresh per-run observer sized for a network with
// the given node count and channel ID space. It is the harness Instrument
// hook; pair every observer with one TrialDone call.
func (a *Aggregate) TrialObserver(nodes, channels int) sim.Observer {
	return NewRunObserver(nodes, channels, a.latBounds)
}

// TrialDone merges a finished trial's series into the aggregate. Observers
// not created by TrialObserver (including nil) are ignored, so the harness
// can call it unconditionally.
func (a *Aggregate) TrialDone(obs sim.Observer) {
	o, ok := obs.(*RunObserver)
	if !ok || o == nil {
		return
	}
	a.trials.Inc()
	a.slots.Add(o.slots)
	a.frames.Add(o.frames)
	a.transmissions.Add(o.transmissions)
	a.collisions.Add(o.collisions)
	a.idle.Add(o.idle)
	a.deliveries.Add(o.deliveries)
	a.duplicates.Add(o.duplicates)
	a.frameTxSlots.Add(o.frameTxSlots)
	a.frameDeliveries.Add(o.frameResolved)
	a.mismatched.Add(o.mismatched)
	a.epochs.Add(o.epochs)
	a.joins.Add(o.joins)
	a.leaves.Add(o.leaves)
	a.channelLosses.Add(o.channelLosses)
	a.tiledSlots.Add(o.internals.TiledSlots)
	a.kernelSlots.Add(o.internals.KernelSlots)
	a.stepperBatches.Add(o.internals.StepperBatches)
	a.stepperNodes.Add(o.internals.StepperBatchNodes)
	a.scratchHits.Add(o.internals.ScratchTableHits)
	a.scratchMisses.Add(o.internals.ScratchTableMisses)

	for u := 0; u < o.nodes; u++ {
		a.latency.merge(o.latBuckets[u], o.latSum[u])
	}

	a.mu.Lock()
	if m := float64(o.internals.MaxStepperBatch); m > a.maxStepperBatch.Value() {
		a.maxStepperBatch.Set(m)
	}
	for len(a.channelTx) < len(o.channelTx) {
		c := len(a.channelTx)
		a.channelTx = append(a.channelTx, a.reg.Counter(
			"nd_channel_tx_total", "transmissions per channel",
			Label{Key: "channel", Value: itoa(c)}))
	}
	for a.perNodeMax > 0 && len(a.perNode) < min(o.nodes, a.perNodeMax) {
		u := len(a.perNode)
		a.perNode = append(a.perNode, a.reg.Histogram(
			"nd_node_discovery_latency", "per-node first-coverage instants of inbound links",
			a.latBounds, Label{Key: "node", Value: itoa(u)}))
	}
	channelTx := a.channelTx
	perNode := a.perNode
	a.mu.Unlock()

	for c, n := range o.channelTx {
		channelTx[c].Add(n)
	}
	for u := 0; u < o.nodes && u < len(perNode); u++ {
		perNode[u].merge(o.latBuckets[u], o.latSum[u])
	}
}

// ObserveRun records one harness work item's queue delay and wall time.
func (a *Aggregate) ObserveRun(index int, queueDelay, wall time.Duration) {
	_ = index
	a.queueDelay.Observe(queueDelay.Seconds())
	a.wall.Observe(wall.Seconds())
}

// UpdateDerived refreshes the derived gauges — currently
// nd_channel_tx_share{channel=…}, each channel's share of all
// transmissions. Call it after the runs finish, before exporting.
func (a *Aggregate) UpdateDerived() {
	a.mu.Lock()
	channelTx := append([]*Counter(nil), a.channelTx...)
	a.mu.Unlock()
	var total int64
	for _, c := range channelTx {
		total += c.Value()
	}
	for i, c := range channelTx {
		g := a.reg.Gauge("nd_channel_tx_share", "share of all transmissions on this channel",
			Label{Key: "channel", Value: itoa(i)})
		if total == 0 {
			g.Set(0)
			continue
		}
		g.Set(float64(c.Value()) / float64(total))
	}
}

// merge folds per-run plain buckets into an atomic histogram. The buckets
// must have been built against the same bounds.
//
//nd:hotpath
func (h *Histogram) merge(counts []uint64, sum float64) {
	if len(counts) != len(h.buckets) {
		// Mis-sized merge would silently misattribute latency mass;
		// sized-by-constructor callers can never hit this.
		panic("telemetry: histogram merge with mismatched bucket count")
	}
	var total uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		h.buckets[i].Add(c)
		total += c
	}
	if total == 0 {
		return
	}
	h.count.Add(total)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + sum)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// itoa is a tiny allocation-conscious strconv.Itoa for small non-negative
// label values (cold path, but keeps the dependency surface minimal).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
