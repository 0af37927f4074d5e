package sim

// Differential tests for dynamic worlds on the word-kernel resolver: a
// dynamic run resolves on candidate masks recompiled per changed epoch,
// and every idle, collision and delivery event must match a scan of the
// epoch's candidate lists over the run's own slot actions, with an
// identically seeded loss stream.

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
// stream. full attaches an observer subscribed to every event kind.
func (sc dynScenario) run(t *testing.T, lossy, full bool) dynPathRun {
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
	cfg := SyncConfig{
		Network:   sc.nw,
		Protocols: syncProtos(t, sc.nw, 55),
		MaxSlots:  sc.maxSlots,
		Dynamics:  sc.world(t),
		Observer:  obs,
		Loss:      sc.loss(t, lossy),
	}
	res, err := RunSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out.res, out.in = res, rec.Last
	return out
}

// loss returns the scenario's seeded loss model when lossy, else nil.
func (sc dynScenario) loss(t *testing.T, lossy bool) *LossModel {
	t.Helper()
	if !lossy {
		return nil
	}
	m, err := NewLossModel(0.3, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// scanSlot is the reference for the single tile's candidate-mask walk: the
// candidate scan. Each listener, in ascending NodeID order, scans its
// candidate list for transmitters on its channel over an operating link,
// drawing one erasure per match and stopping at the second surviving
// transmission; it then records exactly one idle, collision (naming the
// first survivor) or delivery event.
func scanSlot(slot int, cands [][]topology.Candidate, actions []radio.Action, loss *LossModel) []eventRec {
	var out []eventRec
	for u, a := range actions {
		if a.Mode != radio.Receive {
			continue
		}
		c := a.Channel
		var sender, first topology.NodeID
		senders := 0
		for _, cand := range cands[u] {
			if tx := actions[cand.From]; tx.Mode != radio.Transmit || tx.Channel != c || !cand.Span.Contains(c) {
				continue
			}
			if loss.erased() {
				continue
			}
			if senders == 0 {
				first = cand.From
			}
			senders++
			sender = cand.From
			if senders > 1 {
				break
			}
		}
		ev := eventRec{kind: EventIdle, slot: slot, to: topology.NodeID(u), channel: c, time: float64(slot)}
		switch senders {
		case 0:
		case 1:
			ev.kind, ev.from = EventDeliver, sender
		default:
			ev.kind, ev.from = EventCollision, first
		}
		out = append(out, ev)
	}
	return out
}

// scanReference replays the candidate scan over an observed run's slot
// actions, each slot on the candidate table of its epoch (the last one
// past the world's horizon).
func (sc dynScenario) scanReference(t *testing.T, run dynPathRun, lossy bool) []eventRec {
	t.Helper()
	w := sc.world(t)
	n := sc.nw.N()
	loss := sc.loss(t, lossy)
	var out []eventRec
	for slot := 0; slot < run.res.SlotsSimulated; slot++ {
		e := min(slot/int(sc.spec.EpochLen), w.Horizon()-1)
		out = append(out, scanSlot(slot, w.At(e).Cands, run.acts[slot*n:(slot+1)*n], loss)...)
	}
	return out
}

// listenerEvents returns a run's idle, collision and delivery events.
func listenerEvents(run dynPathRun) []eventRec {
	var out []eventRec
	for _, e := range run.events {
		if e.kind == EventIdle || e.kind == EventCollision || e.kind == EventDeliver {
			out = append(out, e)
		}
	}
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

// TestSyncDynamicMatchesCandidateScan runs each dynamic world with and
// without loss under a full per-listener observer, on the candidate masks
// the engine recompiles per epoch, and pins every idle, collision and
// delivery event to the candidate scan (scanReference) replayed over the
// run's slot actions with an identically seeded loss stream. An
// unobserved run must match the observed one.
func TestSyncDynamicMatchesCandidateScan(t *testing.T) {
	for _, sc := range dynScenarios(t) {
		for _, lossy := range []bool{false, true} {
			for _, full := range []bool{false, true} {
				label := fmt.Sprintf("%s/lossy=%v/observer=%v", sc.label, lossy, full)
				t.Run(label, func(t *testing.T) {
					observed := sc.run(t, lossy, true)
					if observed.in.KernelSlots != observed.in.SlotsSimulated {
						t.Fatalf("path attribution: %+v", observed.in)
					}
					if !full {
						quiet := sc.run(t, lossy, false)
						if quiet.in.KernelSlots != quiet.in.SlotsSimulated {
							t.Fatalf("unobserved run path attribution: %+v", quiet.in)
						}
						sameDynRun(t, label, quiet, dynPathRun{res: observed.res})
						return
					}
					got, want := listenerEvents(observed), sc.scanReference(t, observed, lossy)
					if len(want) == 0 {
						t.Fatal("the run resolved no listener")
					}
					if !slices.Equal(got, want) {
						for i := range min(len(got), len(want)) {
							if got[i] != want[i] {
								t.Fatalf("%s: listener event %d = %+v, candidate scan %+v", label, i, got[i], want[i])
							}
						}
						t.Fatalf("%s: %d listener events, candidate scan %d", label, len(got), len(want))
					}
				})
			}
		}
	}
}
