package sim

// Differential tests for dynamic worlds on the word-kernel resolver: a
// dynamic run resolves on the kernel path over a candidate-mask table
// repacked per changed epoch, and must match — coverage, latencies,
// completion and the full event stream — the same seeded run forced onto
// the scalar candidate scan through the scratch's mask-budget hook.

import (
	"fmt"
	"slices"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/dynamics"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// dynPathRun is one run's observable output.
type dynPathRun struct {
	res    *SyncResult
	in     Internals
	events []eventRec     // every event
	acts   []radio.Action // EventSlot actions, concatenated
}

// eventRec is an Event without its borrowed Actions slice, so records
// compare with ==.
type eventRec struct {
	kind     EventKind
	slot     int
	from, to topology.NodeID
	channel  channel.ID
	node     topology.NodeID
	epoch    int
	time     float64
}

func recordEvent(e Event) eventRec {
	return eventRec{e.Kind, e.Slot, e.From, e.To, e.Channel, e.Node, e.Epoch, e.Time}
}

// dynScenario is a seeded dynamic world over a fixed network.
type dynScenario struct {
	label    string
	nw       *topology.Network
	spec     dynamics.Spec
	maxSlots int
}

func (sc dynScenario) world(t *testing.T) *dynamics.World {
	t.Helper()
	w, err := dynamics.NewWorld(sc.nw, sc.spec, sc.maxSlots/int(sc.spec.EpochLen), rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// run executes the scenario with a fresh world, seeded protocols and loss
// stream, on a fresh scratch whose mask budget is budget (0: the default).
// full attaches an observer subscribed to every event kind.
func (sc dynScenario) run(t *testing.T, lossy, full bool, budget int) dynPathRun {
	t.Helper()
	var out dynPathRun
	rec := &InternalsRecorder{}
	obs := Observer(rec)
	if full {
		obs = MultiObserver(rec, ObserverFunc(func(e Event) {
			if e.Kind == EventSlot {
				out.acts = append(out.acts, e.Actions...)
			}
			out.events = append(out.events, recordEvent(e))
		}))
	}
	scratch := NewSyncScratch()
	scratch.maskBudget = budget
	cfg := SyncConfig{
		Network:   sc.nw,
		Protocols: syncProtos(t, sc.nw, 55),
		MaxSlots:  sc.maxSlots,
		Dynamics:  sc.world(t),
		Observer:  obs,
		Scratch:   scratch,
	}
	if lossy {
		var err error
		if cfg.Loss, err = NewLossModel(0.3, rng.New(99)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := RunSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out.res, out.in = res, rec.Last
	return out
}

// sameDynRun asserts two runs are indistinguishable: result fields,
// coverage record and latencies, and the event stream.
func sameDynRun(t *testing.T, label string, got, want dynPathRun) {
	t.Helper()
	if got.res.Complete != want.res.Complete || got.res.CompletionSlot != want.res.CompletionSlot ||
		got.res.SlotsSimulated != want.res.SlotsSimulated {
		t.Fatalf("%s: result complete=%v@%d slots=%d, reference complete=%v@%d slots=%d", label,
			got.res.Complete, got.res.CompletionSlot, got.res.SlotsSimulated,
			want.res.Complete, want.res.CompletionSlot, want.res.SlotsSimulated)
	}
	sameCoverage(t, label, got.res.Coverage, want.res.Coverage)
	if len(got.events) != len(want.events) {
		t.Fatalf("%s: %d events, reference %d", label, len(got.events), len(want.events))
	}
	for i := range want.events {
		if got.events[i] != want.events[i] {
			t.Fatalf("%s: event %d = %+v, reference %+v", label, i, got.events[i], want.events[i])
		}
	}
	if !slices.Equal(got.acts, want.acts) {
		t.Fatalf("%s: slot-event actions differ from the reference", label)
	}
}

// dynScenarios returns the worlds the differential tests sweep: churn plus
// primary users on a fixed graph (the filter path), and random-waypoint
// mobility with primary users (per-epoch geometric re-derivation). Both
// networks span more than one 64-node word, so mask windows start past
// word 0.
func dynScenarios(t *testing.T) []dynScenario {
	t.Helper()
	r := rng.New(404)
	fixed, err := topology.GeometricConnected(90, 0.22, r, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignUniformK(fixed, 6, 3, r); err != nil {
		t.Fatal(err)
	}
	mobile, err := topology.GeometricConnected(80, 0.25, r, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignBernoulli(mobile, 5, 0.6, r); err != nil {
		t.Fatal(err)
	}
	return []dynScenario{
		{"churn-pu", fixed, dynamics.Spec{
			EpochLen: 150,
			Churn:    &dynamics.Churn{JoinFraction: 0.4, JoinWindow: 8, LeaveFraction: 0.3, LeaveWindow: 8},
			Primary:  &dynamics.Primary{Events: 4, Duration: 4, Radius: 0.3},
		}, 3000},
		{"mobility", mobile, dynamics.Spec{
			EpochLen: 100,
			Mobility: &dynamics.Mobility{Speed: 0.08, Radius: 0.25, Pause: 1},
			Primary:  &dynamics.Primary{Events: 3, Duration: 5, Radius: 0.3},
		}, 3000},
	}
}

// TestSyncDynamicPathsMatchScalar runs each dynamic world with and without
// loss, unobserved and under a full per-listener observer, on the kernel
// path the engine selects and forced onto the scalar scan by a one-word
// mask budget. The two must agree on coverage, latencies, completion and
// every event.
func TestSyncDynamicPathsMatchScalar(t *testing.T) {
	for _, sc := range dynScenarios(t) {
		for _, lossy := range []bool{false, true} {
			for _, full := range []bool{false, true} {
				label := fmt.Sprintf("%s/lossy=%v/observer=%v", sc.label, lossy, full)
				t.Run(label, func(t *testing.T) {
					fast := sc.run(t, lossy, full, 0)
					scalar := sc.run(t, lossy, full, 1)
					if fast.in.KernelSlots != fast.in.SlotsSimulated || fast.in.ScalarSlots != 0 || fast.in.MaskBudgetOverruns != 0 {
						t.Fatalf("kernel run path attribution: %+v", fast.in)
					}
					if scalar.in.ScalarSlots != scalar.in.SlotsSimulated || scalar.in.MaskBudgetOverruns == 0 {
						t.Fatalf("forced-scalar run path attribution: %+v", scalar.in)
					}
					if full && len(fast.events) == 0 {
						t.Fatal("full observer saw no events")
					}
					sameDynRun(t, label, fast, scalar)
				})
			}
		}
	}
}

// TestSyncDynamicMixedBudget sets the mask budget between the smallest and
// largest epoch tables of each world, so some epochs resolve on the kernel
// and others fall back to the scalar scan within one run — the
// per-epoch switch itself must be invisible in results and events.
func TestSyncDynamicMixedBudget(t *testing.T) {
	for _, sc := range dynScenarios(t) {
		w := sc.world(t)
		channels := 0
		if id, ok := sc.nw.Universe().Max(); ok {
			channels = int(id) + 1
		}
		var sizes []int
		for e := 0; e < w.Horizon(); e++ {
			sizes = append(sizes, topology.NewCandidateMasks(w.At(e).Cands, channels, 0).PackedWords())
		}
		slices.Sort(sizes)
		budget := sizes[len(sizes)/2]
		if budget == sizes[len(sizes)-1] {
			t.Fatalf("%s: epoch tables all pack to %d words; no budget splits them", sc.label, budget)
		}
		for _, lossy := range []bool{false, true} {
			label := fmt.Sprintf("%s/lossy=%v/budget=%d", sc.label, lossy, budget)
			t.Run(label, func(t *testing.T) {
				mixed := sc.run(t, lossy, true, budget)
				scalar := sc.run(t, lossy, true, 1)
				if mixed.in.ScalarSlots == 0 || mixed.in.ScalarSlots == mixed.in.SlotsSimulated || mixed.in.MaskBudgetOverruns == 0 {
					t.Fatalf("budget %d did not split the run between paths: %+v", budget, mixed.in)
				}
				if mixed.in.KernelSlots+mixed.in.ScalarSlots != mixed.in.SlotsSimulated {
					t.Fatalf("path attribution does not sum to the run: %+v", mixed.in)
				}
				sameDynRun(t, label, mixed, scalar)
				// Unobserved and loss-free, the run splits the same way.
				if !lossy {
					quiet := sc.run(t, false, false, budget)
					sameCoverage(t, label+" unobserved", quiet.res.Coverage, scalar.res.Coverage)
					if quiet.in.KernelSlots+quiet.in.ScalarSlots != quiet.in.SlotsSimulated || quiet.in.KernelSlots == 0 {
						t.Fatalf("unobserved mixed run attribution: %+v", quiet.in)
					}
				}
			})
		}
	}
}

// TestSyncStaticMaskOverrun forces a static network's mask table over
// budget end to end: the run resolves every slot on the scalar scan,
// reports one overrun, and matches the kernel-path run.
func TestSyncStaticMaskOverrun(t *testing.T) {
	nw := diffNet(t, 9, 12)
	run := func(budget int, obs Observer, rec *InternalsRecorder) *SyncResult {
		scratch := NewSyncScratch()
		scratch.maskBudget = budget
		res, err := RunSync(SyncConfig{
			Network:   nw,
			Protocols: syncProtos(t, nw, 55),
			MaxSlots:  600,
			Observer:  MultiObserver(rec, obs),
			Scratch:   scratch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var fastEv, slowEv []eventRec
	fastRec, slowRec := &InternalsRecorder{}, &InternalsRecorder{}
	fast := run(0, ObserverFunc(func(e Event) { fastEv = append(fastEv, recordEvent(e)) }), fastRec)
	slow := run(1, ObserverFunc(func(e Event) { slowEv = append(slowEv, recordEvent(e)) }), slowRec)
	if in := slowRec.Last; in.MaskBudgetOverruns != 1 || in.ScalarSlots != in.SlotsSimulated {
		t.Fatalf("over-budget static run: %+v, want 1 overrun and every slot scalar", in)
	}
	if in := fastRec.Last; in.MaskBudgetOverruns != 0 || in.KernelSlots != in.SlotsSimulated {
		t.Fatalf("in-budget static run: %+v, want every slot on the kernel path", in)
	}
	sameCoverage(t, "static overrun", slow.Coverage, fast.Coverage)
	if !slices.Equal(fastEv, slowEv) {
		t.Fatal("static overrun: event streams differ")
	}
}
