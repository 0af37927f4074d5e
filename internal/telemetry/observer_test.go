package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"

	"m2hew/internal/harness"
	"m2hew/internal/radio"
	"m2hew/internal/sim"
	"m2hew/internal/topology"
)

// The harness knows telemetry only through its Instrument seam; this is
// the one place the two are pinned together.
var _ harness.Instrument = (*Aggregate)(nil)

func TestRunObserverSyncSeries(t *testing.T) {
	o := NewRunObserver(3, 2, nil)
	actions := []radio.Action{
		{Mode: radio.Transmit, Channel: 0},
		{Mode: radio.Receive, Channel: 0},
		{Mode: radio.Transmit, Channel: 1},
	}
	o.OnEvent(sim.Event{Kind: sim.EventSlot, Slot: 0, Actions: actions})
	o.OnEvent(sim.Event{Kind: sim.EventDeliver, Time: 0, From: 0, To: 1, Channel: 0})
	o.OnEvent(sim.Event{Kind: sim.EventCollision, Time: 1, From: 0, To: 1, Channel: 0})
	o.OnEvent(sim.Event{Kind: sim.EventIdle, Time: 2, To: 1, Channel: 0})
	// Same link again: a duplicate, no second latency sample.
	o.OnEvent(sim.Event{Kind: sim.EventDeliver, Time: 3, From: 0, To: 1, Channel: 0})

	s := o.Stats()
	if s.Slots != 1 || s.Transmissions != 2 || s.Collisions != 1 || s.IdleListens != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Deliveries != 2 || s.Duplicates != 1 {
		t.Fatalf("deliveries/duplicates = %d/%d, want 2/1", s.Deliveries, s.Duplicates)
	}
	if s.ChannelTx[0] != 1 || s.ChannelTx[1] != 1 {
		t.Fatalf("channelTx = %v", s.ChannelTx)
	}
	if s.NodeLatency[1].Count != 1 || s.NodeLatency[0].Count != 0 {
		t.Fatalf("latency counts = %d/%d", s.NodeLatency[1].Count, s.NodeLatency[0].Count)
	}
	if s.Mismatched != 0 {
		t.Fatalf("mismatched = %d", s.Mismatched)
	}
}

func TestRunObserverFrameSeries(t *testing.T) {
	o := NewRunObserver(2, 2, nil)
	o.OnEvent(sim.Event{Kind: sim.EventFrameStart, Node: 0, Slot: 0,
		Action: radio.Action{Mode: radio.Transmit, Channel: 1}})
	o.OnEvent(sim.Event{Kind: sim.EventFrameStart, Node: 1, Slot: 0,
		Action: radio.Action{Mode: radio.Receive, Channel: 1}})
	o.OnEvent(sim.Event{Kind: sim.EventFrameResolve, Node: 1, Slot: 0,
		Action: radio.Action{Mode: radio.Receive, Channel: 1}, Collected: 3, Delivered: 1})

	s := o.Stats()
	if s.Frames != 2 || s.Transmissions != 1 || s.ChannelTx[1] != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.FrameTxSlots != 3 || s.FrameDeliveries != 1 {
		t.Fatalf("frame accounting = %d/%d, want 3/1", s.FrameTxSlots, s.FrameDeliveries)
	}
}

func TestRunObserverMismatched(t *testing.T) {
	o := NewRunObserver(2, 1, nil)
	o.OnEvent(sim.Event{Kind: sim.EventSlot, Actions: []radio.Action{
		{Mode: radio.Transmit, Channel: 5}, // out-of-range channel
	}})
	o.OnEvent(sim.Event{Kind: sim.EventDeliver, From: 7, To: 1}) // out-of-range node
	s := o.Stats()
	if s.Mismatched != 2 {
		t.Fatalf("mismatched = %d, want 2", s.Mismatched)
	}
	// The delivery still counted; the latency sample was dropped.
	if s.Deliveries != 1 || s.Transmissions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRunStatsUtilization(t *testing.T) {
	s := RunStats{Slots: 4, ChannelTx: []int64{2, 0, 6}}
	u := s.Utilization()
	want := []float64{0.5, 0, 1.5}
	for i := range want {
		if u[i] != want[i] {
			t.Fatalf("utilization = %v, want %v", u, want)
		}
	}
	if u := (RunStats{ChannelTx: []int64{3}}).Utilization(); u[0] != 0 {
		t.Fatalf("zero-unit utilization = %v, want 0", u[0])
	}
}

// TestRunObserverAgainstEngine hand-checks a 2-node scenario end to end:
// nodes 0,1 are mutual neighbors on one channel; node 0 always transmits,
// node 1 always listens. Slot 0 delivers link 0→1; every later slot is a
// duplicate; node 0 never hears anything (it never listens).
func TestRunObserverAgainstEngine(t *testing.T) {
	nw, err := topology.Pair()
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 1); err != nil {
		t.Fatal(err)
	}
	o := NewRunObserver(2, 1, nil)
	const slots = 4
	_, err = sim.RunSync(sim.SyncConfig{
		Network: nw,
		Protocols: []sim.SyncProtocol{
			fixedProto{radio.Action{Mode: radio.Transmit, Channel: 0}},
			fixedProto{radio.Action{Mode: radio.Receive, Channel: 0}},
		},
		MaxSlots:      slots,
		RunToMaxSlots: true,
		Observer:      o,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := o.Stats()
	if s.Slots != slots || s.Transmissions != slots {
		t.Fatalf("slots/tx = %d/%d, want %d/%d", s.Slots, s.Transmissions, slots, slots)
	}
	if s.Deliveries != slots || s.Duplicates != slots-1 {
		t.Fatalf("deliveries/duplicates = %d/%d, want %d/%d", s.Deliveries, s.Duplicates, slots, slots-1)
	}
	if s.Collisions != 0 || s.IdleListens != 0 {
		t.Fatalf("collisions/idle = %d/%d, want 0/0", s.Collisions, s.IdleListens)
	}
	if s.NodeLatency[1].Count != 1 || s.NodeLatency[1].Sum != 0 {
		t.Fatalf("node 1 latency: count=%d sum=%v, want one sample at t=0",
			s.NodeLatency[1].Count, s.NodeLatency[1].Sum)
	}
}

type fixedProto struct{ a radio.Action }

func (p fixedProto) Step(int) radio.Action      { return p.a }
func (p fixedProto) Deliver(msg radio.Message)  {}
func (p fixedProto) NextFrame(int) radio.Action { return p.a }

func findMetric(t *testing.T, snap []MetricSnapshot, key string) MetricSnapshot {
	t.Helper()
	for _, m := range snap {
		if metricKey(m.Name, m.Labels) == key {
			return m
		}
	}
	t.Fatalf("metric %q not in snapshot", key)
	return MetricSnapshot{}
}

func TestAggregateFlush(t *testing.T) {
	reg := NewRegistry()
	agg := NewAggregate(reg, PerNodeLatency(4))

	obs := agg.TrialObserver(2, 2)
	o, ok := obs.(*RunObserver)
	if !ok {
		t.Fatalf("TrialObserver returned %T", obs)
	}
	o.OnEvent(sim.Event{Kind: sim.EventSlot, Actions: []radio.Action{
		{Mode: radio.Transmit, Channel: 1},
		{Mode: radio.Receive, Channel: 1},
	}})
	o.OnEvent(sim.Event{Kind: sim.EventDeliver, Time: 5, From: 0, To: 1, Channel: 1})
	agg.TrialDone(o)
	agg.TrialDone(nil) // tolerated: merges nothing
	agg.ObserveRun(0, 2*time.Millisecond, 30*time.Millisecond)
	agg.UpdateDerived()

	snap := reg.Snapshot()
	if v := findMetric(t, snap, "nd_trials_total").Value; v != 1 {
		t.Errorf("trials = %v", v)
	}
	if v := findMetric(t, snap, "nd_slots_total").Value; v != 1 {
		t.Errorf("slots = %v", v)
	}
	if v := findMetric(t, snap, "nd_deliveries_total").Value; v != 1 {
		t.Errorf("deliveries = %v", v)
	}
	if v := findMetric(t, snap, "nd_channel_tx_total{channel=1}").Value; v != 1 {
		t.Errorf("channel 1 tx = %v", v)
	}
	if v := findMetric(t, snap, "nd_channel_tx_share{channel=1}").Value; v != 1 {
		t.Errorf("channel 1 share = %v", v)
	}
	lat := findMetric(t, snap, "nd_discovery_latency").Histogram
	if lat == nil || lat.Count != 1 || lat.Sum != 5 {
		t.Errorf("latency histogram = %+v", lat)
	}
	nodeLat := findMetric(t, snap, "nd_node_discovery_latency{node=1}").Histogram
	if nodeLat == nil || nodeLat.Count != 1 {
		t.Errorf("node 1 latency histogram = %+v", nodeLat)
	}
	wall := findMetric(t, snap, "nd_trial_wall_seconds").Histogram
	if wall == nil || wall.Count != 1 {
		t.Errorf("wall histogram = %+v", wall)
	}
	queue := findMetric(t, snap, "nd_trial_queue_seconds").Histogram
	if queue == nil || queue.Count != 1 {
		t.Errorf("queue histogram = %+v", queue)
	}
}

// TestAggregateInternalsCounters: engine-internals reports delivered to a
// trial's RunObserver land in the registry's nd_resolver_* / nd_stepper_* /
// nd_scratch_* series on TrialDone, summing across trials with the max
// gauge taking the largest batch seen.
func TestAggregateInternalsCounters(t *testing.T) {
	reg := NewRegistry()
	agg := NewAggregate(reg)

	o1 := agg.TrialObserver(4, 2).(*RunObserver)
	o1.OnInternals(sim.Internals{
		SlotsSimulated: 100, KernelSlots: 100,
		StepperBatches: 100, StepperBatchNodes: 400, MaxStepperBatch: 7,
		ScratchTableMisses: 1,
	})
	agg.TrialDone(o1)

	o2 := agg.TrialObserver(4, 2).(*RunObserver)
	o2.OnInternals(sim.Internals{
		SlotsSimulated: 50, KernelSlots: 50,
		StepperBatches: 50, StepperBatchNodes: 90, MaxStepperBatch: 3,
		ScratchTableHits: 1,
	})
	agg.TrialDone(o2)

	o3 := agg.TrialObserver(4, 2).(*RunObserver)
	o3.OnInternals(sim.Internals{
		SlotsSimulated: 40, TiledSlots: 40,
		StepperBatches: 160, StepperBatchNodes: 640, MaxStepperBatch: 4,
		ScratchTableHits: 1,
	})
	agg.TrialDone(o3)

	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"nd_resolver_tiled_slots_total":  40,
		"nd_resolver_kernel_slots_total": 150,
		"nd_stepper_batches_total":       310,
		"nd_stepper_batch_nodes_total":   1130,
		"nd_scratch_table_hits_total":    2,
		"nd_scratch_table_misses_total":  1,
		"nd_stepper_batch_max":           7, // max across trials, not sum
	} {
		if v := findMetric(t, snap, name).Value; v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	// No series reports the retired scalar path, mask budget or halo
	// exchange.
	for _, m := range snap {
		if m.Name == "nd_resolver_scalar_slots_total" || m.Name == "nd_mask_budget_overruns_total" || strings.HasPrefix(m.Name, "nd_halo_") {
			t.Errorf("%s is still exported", m.Name)
		}
	}
}

func TestAggregateConcurrentTrials(t *testing.T) {
	reg := NewRegistry()
	agg := NewAggregate(reg, PerNodeLatency(8))
	const workers, trialsPer = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < trialsPer; i++ {
				// Vary sizes so lazy channel/node growth races are exercised.
				nodes := 2 + (w+i)%3
				channels := 1 + (w+i)%4
				obs := agg.TrialObserver(nodes, channels)
				o := obs.(*RunObserver)
				o.OnEvent(sim.Event{Kind: sim.EventDeliver, Time: 1, From: 0, To: 1})
				agg.TrialDone(o)
				agg.ObserveRun(i, time.Microsecond, time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if v := findMetric(t, snap, "nd_trials_total").Value; v != workers*trialsPer {
		t.Fatalf("trials = %v, want %d", v, workers*trialsPer)
	}
	if v := findMetric(t, snap, "nd_deliveries_total").Value; v != workers*trialsPer {
		t.Fatalf("deliveries = %v, want %d", v, workers*trialsPer)
	}
	lat := findMetric(t, snap, "nd_discovery_latency").Histogram
	if lat.Count != workers*trialsPer {
		t.Fatalf("latency count = %d", lat.Count)
	}
}

func TestHistogramMergeMismatchPanics(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched merge did not panic")
		}
	}()
	h.merge(make([]uint64, 99), 0)
}

// TestOnEventZeroAlloc locks in the hot-loop contract: a RunObserver
// processes every event kind without allocating.
func TestOnEventZeroAlloc(t *testing.T) {
	o := NewRunObserver(4, 2, nil)
	actions := []radio.Action{
		{Mode: radio.Transmit, Channel: 0},
		{Mode: radio.Receive, Channel: 0},
		{Mode: radio.Transmit, Channel: 1},
		{Mode: radio.Quiet},
	}
	events := []sim.Event{
		{Kind: sim.EventSlot, Slot: 1, Actions: actions},
		{Kind: sim.EventDeliver, Time: 1, From: 0, To: 1, Channel: 0},
		{Kind: sim.EventCollision, Time: 1, From: 0, To: 3, Channel: 0},
		{Kind: sim.EventIdle, Time: 1, To: 2, Channel: 1},
		{Kind: sim.EventFrameStart, Node: 2, Slot: 3, Action: actions[0]},
		{Kind: sim.EventFrameResolve, Node: 2, Slot: 3, Action: actions[1], Collected: 2, Delivered: 1},
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, e := range events {
			o.OnEvent(e)
		}
	}); n != 0 {
		t.Fatalf("OnEvent allocates %v objects per run, want 0", n)
	}
}

func TestItoa(t *testing.T) {
	for _, c := range []struct {
		v    int
		want string
	}{{0, "0"}, {7, "7"}, {42, "42"}, {1234567, "1234567"}} {
		if got := itoa(c.v); got != c.want {
			t.Errorf("itoa(%d) = %q, want %q", c.v, got, c.want)
		}
	}
}
