package sim

// This file is the engine-internals reporting seam: a once-per-run summary
// of what the engine machinery itself did — which resolver path ran, how
// many protocol decisions each slot drew, whether the scratch's network
// tables were reused — as opposed to what happened in the simulated network (the Event
// stream). The two ride the same Observer attachment point so composition,
// masking and the nil fast path need no second seam: an observer that also
// implements InternalsSink receives exactly one OnInternals call when the
// run finishes.
//
// The contract mirrors the Event seam's cost rules:
//
//   - Zero cost when unused: the engine type-asserts the observer once at
//     setup; without a sink the hot loop carries no internals tallies
//     beyond one dead boolean test per slot.
//   - Zero allocation when used: Internals is a plain value passed by
//     value; per-slot tallying is integer arithmetic on run-local fields.
//   - Zero perturbation: a sink whose EventMask is zero keeps the
//     multi-tile path and the engine's event-free fast paths — reading the
//     internals never changes which internals there are to read. (A full
//     observer still moves a multi-tile run to the single tile, because
//     per-listener events need listener order; the report then says so.)

// Internals is one synchronous run's engine-internals summary. All fields
// are totals over the run, sized for lossless merging across trials.
type Internals struct {
	// SlotsSimulated mirrors SyncResult.SlotsSimulated.
	SlotsSimulated int64
	// TiledSlots and KernelSlots attribute the run's slots to the resolver
	// path that executed them: TiledSlots counts multi-tile slots and
	// KernelSlots the single tile's. The tiling is fixed for a whole run,
	// so one of the two carries every slot.
	TiledSlots  int64
	KernelSlots int64
	// ScalarSlots and BatchedSlots are always zero: the scalar candidate
	// scan and the channel-major batched resolver they counted are gone,
	// and their slots run on the single tile's kernel. The fields stay
	// until the repository benchmark stops reading them.
	ScalarSlots  int64
	BatchedSlots int64
	// HaloExchanges counts multi-tile halo segment copies from a NEIGHBOR
	// tile (a tile reading its own transmitter mask does not count);
	// HaloWordsCopied sums their word widths. Both are zero on the single
	// tile. Multi-tile runs attribute decision rounds per (slot, tile with
	// active nodes) rather than per slot.
	HaloExchanges   int64
	HaloWordsCopied int64
	// StepperBatches counts the slots' decision rounds (one per slot);
	// StepperBatchNodes sums their sizes (protocol Step calls), so the
	// mean round size is StepperBatchNodes/StepperBatches. MaxStepperBatch
	// is the largest single round.
	StepperBatches    int64
	StepperBatchNodes int64
	MaxStepperBatch   int64
	// ScratchTableHits / ScratchTableMisses report whether the run reused
	// the scratch's cached network tables (hit) or rebuilt them (miss);
	// one of the two is 1, the other 0. Across a trial batch on one
	// worker the hit rate exposes how often networks are recycled.
	ScratchTableHits   int64
	ScratchTableMisses int64
}

// Merge adds o's totals into in.
func (in *Internals) Merge(o Internals) {
	in.SlotsSimulated += o.SlotsSimulated
	in.TiledSlots += o.TiledSlots
	in.HaloExchanges += o.HaloExchanges
	in.HaloWordsCopied += o.HaloWordsCopied
	in.KernelSlots += o.KernelSlots
	in.ScalarSlots += o.ScalarSlots
	in.StepperBatches += o.StepperBatches
	in.StepperBatchNodes += o.StepperBatchNodes
	if o.MaxStepperBatch > in.MaxStepperBatch {
		in.MaxStepperBatch = o.MaxStepperBatch
	}
	in.ScratchTableHits += o.ScratchTableHits
	in.ScratchTableMisses += o.ScratchTableMisses
}

// InternalsSink is optionally implemented by observers that want the
// engine-internals summary. The engine calls OnInternals exactly once, on
// its own goroutine, after the slot loop finishes and before RunSync
// returns; the value is a copy the sink may retain.
type InternalsSink interface {
	OnInternals(Internals)
}

// OnInternals implements InternalsSink: the fan-out forwards the report to
// every member that accepts it, in order, mirroring OnEvent.
func (m multiObserver) OnInternals(in Internals) {
	for _, o := range m {
		if s, ok := o.(InternalsSink); ok {
			s.OnInternals(in)
		}
	}
}

// OnInternals implements InternalsSink: masking filters event kinds, not
// the end-of-run internals report, so the wrapper forwards unconditionally.
func (m maskedObserver) OnInternals(in Internals) {
	if s, ok := m.obs.(InternalsSink); ok {
		s.OnInternals(in)
	}
}

// InternalsRecorder captures engine-internals reports while subscribing to
// no events at all, so attaching one preserves the engine's multi-tile
// path and event-free fast paths — the production shape for counters that must
// not perturb what they measure, and the reference observer for the
// perturbation guards in the tests.
type InternalsRecorder struct {
	// Total accumulates every report; Last is the most recent one.
	Total Internals
	Last  Internals
	// Reports counts OnInternals calls (one per completed run).
	Reports int
}

// OnEvent implements sim.Observer; the recorder consumes no events.
func (r *InternalsRecorder) OnEvent(Event) {}

// EventMask implements EventMasker: subscribe to nothing.
func (r *InternalsRecorder) EventMask() EventMask { return 0 }

// OnInternals implements InternalsSink.
func (r *InternalsRecorder) OnInternals(in Internals) {
	r.Last = in
	r.Total.Merge(in)
	r.Reports++
}
