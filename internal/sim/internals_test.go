package sim

// Tests for the engine-internals reporting seam (internals.go): the
// differential guarantee that the resolver-path slot attribution sums to
// the run's slot count on every path, the scratch-reuse and stepper
// tallies, and the perturbation guards — attaching an InternalsRecorder
// must keep the unobserved run's path, identical results, and the
// allocation profile of an unobserved run.

import (
	"testing"

	"m2hew/internal/dynamics"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// internalsRun executes one seeded staged-protocol run with obs attached
// and returns the result.
func internalsRun(t *testing.T, nw *topology.Network, obs Observer, cfg SyncConfig) *SyncResult {
	t.Helper()
	cfg.Network = nw
	cfg.Protocols = syncProtos(t, nw, 55)
	if cfg.MaxSlots == 0 {
		cfg.MaxSlots = 600
	}
	cfg.RunToMaxSlots = true
	cfg.Observer = obs
	res, err := RunSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestInternalsPathAttributionSumsToSlots is the differential test for the
// resolver-path counters: on every configuration that selects a different
// path, exactly one path counter carries the run's whole slot count and
// the path counters always sum to SlotsSimulated.
func TestInternalsPathAttributionSumsToSlots(t *testing.T) {
	nw := diffNet(t, 9, 12)
	world := func() *dynamics.World {
		w, err := dynamics.NewWorld(nw, dynamics.Spec{
			EpochLen: 100,
			Churn:    &dynamics.Churn{JoinFraction: 0.3, JoinWindow: 8, LeaveFraction: 0.2, LeaveWindow: 6},
		}, 6, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	loss := func() *LossModel {
		m, err := NewLossModel(0.25, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		label string
		cfg   SyncConfig
		full  bool // wrap the recorder with a full observer (per-listener events)
		want  func(in Internals) int64
	}{
		// Without a tiling every run with a mask table resolves on the
		// listener-major kernel, whatever the observer subscribes to.
		{"kernel", SyncConfig{}, false, func(in Internals) int64 { return in.KernelSlots }},
		{"kernel-full-observer", SyncConfig{}, true, func(in Internals) int64 { return in.KernelSlots }},
		{"kernel-lossy", SyncConfig{Loss: loss()}, false, func(in Internals) int64 { return in.KernelSlots }},
		// Dynamic runs resolve on the kernel over per-epoch masks.
		{"kernel-dynamics", SyncConfig{Dynamics: world()}, false, func(in Internals) int64 { return in.KernelSlots }},
		{"kernel-dynamics-full-observer", SyncConfig{Dynamics: world()}, true, func(in Internals) int64 { return in.KernelSlots }},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			rec := &InternalsRecorder{}
			obs := Observer(rec)
			if tc.full {
				obs = MultiObserver(rec, ObserverFunc(func(Event) {}))
			}
			res := internalsRun(t, nw, obs, tc.cfg)
			if rec.Reports != 1 {
				t.Fatalf("reports = %d, want exactly 1 per run", rec.Reports)
			}
			in := rec.Last
			if in.SlotsSimulated != int64(res.SlotsSimulated) {
				t.Errorf("SlotsSimulated = %d, result says %d", in.SlotsSimulated, res.SlotsSimulated)
			}
			if in.BatchedSlots != 0 {
				t.Errorf("BatchedSlots = %d; the batched path is gone", in.BatchedSlots)
			}
			if sum := in.TiledSlots + in.KernelSlots + in.ScalarSlots; sum != in.SlotsSimulated {
				t.Errorf("path attribution sum = %d, want %d (tiled %d, kernel %d, scalar %d)",
					sum, in.SlotsSimulated, in.TiledSlots, in.KernelSlots, in.ScalarSlots)
			}
			if got := tc.want(in); got != in.SlotsSimulated {
				t.Errorf("expected path carries %d of %d slots: %+v", got, in.SlotsSimulated, in)
			}
		})
	}
}

// TestInternalsStepperTallies bounds the decision-round accounting: one
// round per simulated slot, round sizes between 1 and n, and the max is a
// round size that actually occurred.
func TestInternalsStepperTallies(t *testing.T) {
	nw := diffNet(t, 9, 12)
	rec := &InternalsRecorder{}
	res := internalsRun(t, nw, rec, SyncConfig{})
	in := rec.Last
	if in.StepperBatches != int64(res.SlotsSimulated) {
		t.Errorf("StepperBatches = %d, want one per slot (%d)", in.StepperBatches, res.SlotsSimulated)
	}
	n := int64(nw.N())
	if in.StepperBatchNodes < in.StepperBatches || in.StepperBatchNodes > in.StepperBatches*n {
		t.Errorf("StepperBatchNodes = %d outside [batches, batches*n] = [%d, %d]",
			in.StepperBatchNodes, in.StepperBatches, in.StepperBatches*n)
	}
	if in.MaxStepperBatch < 1 || in.MaxStepperBatch > n {
		t.Errorf("MaxStepperBatch = %d outside [1, %d]", in.MaxStepperBatch, n)
	}
	if mean := in.StepperBatchNodes / in.StepperBatches; in.MaxStepperBatch < mean {
		t.Errorf("MaxStepperBatch %d below mean batch size %d", in.MaxStepperBatch, mean)
	}
}

// TestInternalsScratchTableReuse: the first run on a fresh scratch rebuilds
// the network tables (miss), the second reuses them (hit), and switching
// networks invalidates the cache (miss again).
func TestInternalsScratchTableReuse(t *testing.T) {
	nwA := diffNet(t, 9, 12)
	nwB := diffNet(t, 10, 12)
	scratch := NewSyncScratch()
	step := func(nw *topology.Network) Internals {
		rec := &InternalsRecorder{}
		internalsRun(t, nw, rec, SyncConfig{Scratch: scratch})
		return rec.Last
	}
	if in := step(nwA); in.ScratchTableMisses != 1 || in.ScratchTableHits != 0 {
		t.Errorf("fresh scratch: hits %d misses %d, want 0/1", in.ScratchTableHits, in.ScratchTableMisses)
	}
	if in := step(nwA); in.ScratchTableHits != 1 || in.ScratchTableMisses != 0 {
		t.Errorf("same network: hits %d misses %d, want 1/0", in.ScratchTableHits, in.ScratchTableMisses)
	}
	if in := step(nwB); in.ScratchTableMisses != 1 || in.ScratchTableHits != 0 {
		t.Errorf("new network: hits %d misses %d, want 0/1", in.ScratchTableHits, in.ScratchTableMisses)
	}
}

// TestInternalsMaskBudgetOverrun pins what finalizeInternals derives from
// the run's tallies: the slots the scalar fallback did not take land on the
// kernel, and the scratch-table flag is reported.
// Overrun counting itself (one per over-budget table, the scalar slots of
// over-budget epochs) is pinned end to end in sync_dynamic_test.go by
// TestSyncStaticMaskOverrun and TestSyncDynamicMixedBudget.
func TestInternalsMaskBudgetOverrun(t *testing.T) {
	kernel := &syncRun{}
	kernel.internals.ScalarSlots = 40
	if in := kernel.finalizeInternals(100, false); in.ScalarSlots != 40 || in.KernelSlots != 60 || in.BatchedSlots != 0 || in.ScratchTableMisses != 1 {
		t.Errorf("kernel run with 40 scalar slots: %+v, want 40 scalar, 60 kernel slots, table miss", in)
	}
	overBudget := &syncRun{}
	overBudget.internals.ScalarSlots = 100
	if in := overBudget.finalizeInternals(100, true); in.ScalarSlots != 100 || in.KernelSlots != 0 || in.ScratchTableHits != 1 {
		t.Errorf("run with every epoch over budget: %+v, want 100 scalar slots, table hit", in)
	}
	if in := (&syncRun{}).finalizeInternals(100, true); in.KernelSlots != 100 || in.ScalarSlots != 0 || in.ScratchTableHits != 1 {
		t.Errorf("kernel run: %+v, want 100 kernel slots, table hit", in)
	}
}

// TestInternalsMergeAcrossRuns checks lossless aggregation: totals sum,
// MaxStepperBatch takes the max.
func TestInternalsMergeAcrossRuns(t *testing.T) {
	var total Internals
	total.Merge(Internals{SlotsSimulated: 10, TiledSlots: 10, StepperBatches: 10, StepperBatchNodes: 40, MaxStepperBatch: 8, ScratchTableMisses: 1})
	total.Merge(Internals{SlotsSimulated: 20, KernelSlots: 20, StepperBatches: 20, StepperBatchNodes: 60, MaxStepperBatch: 5, ScratchTableHits: 1})
	want := Internals{
		SlotsSimulated: 30, TiledSlots: 10, KernelSlots: 20,
		StepperBatches: 30, StepperBatchNodes: 100, MaxStepperBatch: 8,
		ScratchTableHits: 1, ScratchTableMisses: 1,
	}
	if total != want {
		t.Errorf("merged = %+v, want %+v", total, want)
	}
}

// TestInternalsRecorderDoesNotPerturb is the observer-invariance guard for
// the seam: a run with an InternalsRecorder attached stays on the kernel
// path and produces coverage identical to the unobserved run, for static
// and dynamic configurations alike.
func TestInternalsRecorderDoesNotPerturb(t *testing.T) {
	nw := diffNet(t, 9, 12)
	world := func() *dynamics.World {
		w, err := dynamics.NewWorld(nw, dynamics.Spec{
			EpochLen: 100,
			Churn:    &dynamics.Churn{JoinFraction: 0.3, JoinWindow: 8, LeaveFraction: 0.2, LeaveWindow: 6},
		}, 6, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, tc := range []struct {
		label string
		cfg   func() SyncConfig
	}{
		{"static", func() SyncConfig { return SyncConfig{} }},
		{"dynamics", func() SyncConfig { return SyncConfig{Dynamics: world()} }},
	} {
		base := internalsRun(t, nw, nil, tc.cfg())
		rec := &InternalsRecorder{}
		got := internalsRun(t, nw, rec, tc.cfg())
		sameCoverage(t, tc.label, base.Coverage, got.Coverage)
		if got.SlotsSimulated != base.SlotsSimulated {
			t.Errorf("%s: slots %d with recorder, %d without", tc.label, got.SlotsSimulated, base.SlotsSimulated)
		}
		if tc.label == "static" && rec.Last.KernelSlots != rec.Last.SlotsSimulated {
			t.Errorf("recorder flipped the run off the kernel path: %+v", rec.Last)
		}
	}
}

// TestInternalsRecorderSteadyStateAllocs extends the kernel-path alloc
// guard: tallying internals for an attached recorder must not add
// allocations to the scratch-reusing hot loop.
func TestInternalsRecorderSteadyStateAllocs(t *testing.T) {
	r := rng.New(42)
	nw, err := topology.GeometricConnected(48, 0.3, r, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignUniformK(nw, 6, 3, r); err != nil {
		t.Fatal(err)
	}
	n := nw.N()
	protos := make([]SyncProtocol, n)
	for u := 0; u < n; u++ {
		avail := nw.Avail(topology.NodeID(u))
		c, err := avail.Pick(r)
		if err != nil {
			t.Fatal(err)
		}
		mode := radio.Receive
		if r.Bernoulli(0.4) {
			mode = radio.Transmit
		}
		protos[u] = &sinkSync{act: radio.Action{Mode: mode, Channel: c}}
	}
	scratch := NewSyncScratch()
	rec := &InternalsRecorder{}
	run := func() {
		if _, err := RunSync(SyncConfig{
			Network:       nw,
			Protocols:     protos,
			MaxSlots:      64,
			RunToMaxSlots: true,
			Scratch:       scratch,
			Observer:      rec,
		}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch
	if allocs := testing.AllocsPerRun(10, run); allocs > 80 {
		t.Errorf("recorder-attached kernel run allocated %.0f objects per scratch-reusing run", allocs)
	}
	if rec.Last.KernelSlots != 64 {
		t.Errorf("alloc guard ran off the kernel path: %+v", rec.Last)
	}
}
