package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/clock"
	"m2hew/internal/core"
	"m2hew/internal/dynamics"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// windowScenario is one seeded RunAsync configuration of the stop-rule
// differential tests. build returns a fresh run (protocols and drifts carry
// state) on the shared network.
type windowScenario struct {
	name  string
	build func(t *testing.T) windowRun
}

// windowRun is one built scenario: its config, the protocols whose
// neighbor tables the tests compare, the log of their Deliver calls and
// each node's count of NextFrame calls.
type windowRun struct {
	cfg    AsyncConfig
	protos []*core.Async
	log    *[]topology.Link
	calls  []int
}

// loggedAsync is Algorithm 4 appending each message it is handed to a log
// shared by all nodes of a run, so the tests see the engine's global
// delivery order, and counting its NextFrame calls.
type loggedAsync struct {
	*core.Async
	id    topology.NodeID
	log   *[]topology.Link
	calls *int
}

func (p loggedAsync) NextFrame(frame int) radio.Action {
	*p.calls++
	return p.Async.NextFrame(frame)
}

func (p loggedAsync) Deliver(msg radio.Message) {
	*p.log = append(*p.log, topology.Link{From: msg.From, To: p.id})
	p.Async.Deliver(msg)
}

// windowDrift builds node u's drift process of the named kind.
func windowDrift(t *testing.T, kind string, u int, r *rng.Source) clock.DriftProcess {
	t.Helper()
	var (
		d   clock.DriftProcess
		err error
	)
	switch kind {
	case "ideal":
		return nil
	case "constant":
		d = clock.Constant(r.UniformFloat64(-clock.MaxAsyncDrift, clock.MaxAsyncDrift))
	case "random-walk":
		d, err = clock.NewRandomWalk(clock.MaxAsyncDrift, 0.03, r)
	case "alternating":
		d, err = clock.NewAlternating(clock.MaxAsyncDrift, 1+u%4, u%2 == 1)
	default:
		t.Fatalf("unknown drift kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// windowScenarios is the seeded grid: every drift kind crossed with 1–6
// slots per frame on heterogeneous channel sets, starts staggered over up
// to 40 frames on every other configuration, plus one run whose horizon is
// too short to complete.
func windowScenarios(t *testing.T) []windowScenario {
	t.Helper()
	var out []windowScenario
	add := func(name string, seed uint64, drift string, slots int, spread float64, maxFrames int) {
		r := rng.New(seed)
		nw, err := topology.ErdosRenyi(10, 0.5, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := topology.AssignBernoulli(nw, 5, 0.5, r); err != nil {
			t.Fatal(err)
		}
		out = append(out, windowScenario{name: name, build: func(t *testing.T) windowRun {
			root := rng.New(seed + 1000)
			const frameLen = 3
			nodes := make([]AsyncNode, nw.N())
			run := windowRun{protos: make([]*core.Async, nw.N()), log: new([]topology.Link), calls: make([]int, nw.N())}
			for u := range nodes {
				p, err := core.NewAsyncSlots(nw.Avail(topology.NodeID(u)), 6, slots, root.Split())
				if err != nil {
					t.Fatal(err)
				}
				run.protos[u] = p
				nodes[u] = AsyncNode{
					Protocol: loggedAsync{Async: p, id: topology.NodeID(u), log: run.log, calls: &run.calls[u]},
					Start:    root.Float64() * spread * frameLen,
					Drift:    windowDrift(t, drift, u, root.Split()),
				}
			}
			run.cfg = AsyncConfig{
				Network:       nw,
				Nodes:         nodes,
				FrameLen:      frameLen,
				SlotsPerFrame: slots,
				MaxFrames:     maxFrames,
			}
			return run
		}})
	}
	seed := uint64(9100)
	for _, drift := range []string{"ideal", "constant", "random-walk", "alternating"} {
		for slots := 1; slots <= 6; slots++ {
			spread := 0.0
			if slots%2 == 0 {
				spread = 40
			}
			seed++
			add(fmt.Sprintf("%s/slots%d/spread%g", drift, slots, spread), seed, drift, slots, spread, 4000)
		}
	}
	add("short-horizon", 9200, "random-walk", 3, 40, 100)
	return out
}

// sameRunResults fails unless two runs of one scenario agree on every
// result the paper's claims read: completion, its time and T_s, the
// coverage curve, MinFullFrames and every node's neighbor table.
func sameRunResults(t *testing.T, what string, a, b windowRun, ra, rb *AsyncResult) {
	t.Helper()
	if ra.Complete != rb.Complete || ra.CompletionTime != rb.CompletionTime || ra.Ts != rb.Ts {
		t.Fatalf("%s: (Complete, CompletionTime, Ts) (%v, %v, %v) vs (%v, %v, %v)",
			what, ra.Complete, ra.CompletionTime, ra.Ts, rb.Complete, rb.CompletionTime, rb.Ts)
	}
	if !reflect.DeepEqual(ra.Coverage.Curve(), rb.Coverage.Curve()) {
		t.Fatalf("%s: coverage curves differ", what)
	}
	if ra.MinFullFrames != rb.MinFullFrames {
		t.Fatalf("%s: MinFullFrames %d vs %d", what, ra.MinFullFrames, rb.MinFullFrames)
	}
	for u := range a.protos {
		na, nb := a.protos[u].Neighbors(), b.protos[u].Neighbors()
		if !reflect.DeepEqual(na.Neighbors(), nb.Neighbors()) {
			t.Fatalf("%s: node %d neighbors %v vs %v", what, u, na.Neighbors(), nb.Neighbors())
		}
		for _, v := range na.Neighbors() {
			ca, _ := na.Common(v)
			cb, _ := nb.Common(v)
			if !ca.Equal(cb) {
				t.Fatalf("%s: node %d neighbor %d: common %v vs %v", what, u, v, ca, cb)
			}
		}
	}
}

// runWindow runs a built scenario.
func runWindow(t *testing.T, run windowRun) *AsyncResult {
	t.Helper()
	res, err := RunAsync(run.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAsyncWindowsMatchSinglePass is the differential test of RunAsync's
// stop at completion: each scenario runs once stopping and once with
// RunToMaxFrames, the single pass over every node's MaxFrames. Every result the paper's claims read must agree
// exactly, the stopping run's protocols must have been handed a prefix of
// the full run's delivery sequence, and no node of the stopping run may
// have decided more frames than in the full run.
func TestAsyncWindowsMatchSinglePass(t *testing.T) {
	stopped := 0
	for _, sc := range windowScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			stopping := sc.build(t)
			rs := runWindow(t, stopping)
			full := sc.build(t)
			full.cfg.RunToMaxFrames = true
			rf := runWindow(t, full)
			sameRunResults(t, "stopping vs full", stopping, full, rs, rf)
			if s, f := *stopping.log, *full.log; len(s) > len(f) || !reflect.DeepEqual(s, f[:len(s)]) {
				t.Fatalf("stopping run's deliveries (%d) are not a prefix of the full run's (%d)", len(s), len(f))
			}
			fewer := false
			for u, c := range stopping.calls {
				if full.calls[u] != full.cfg.MaxFrames {
					t.Fatalf("full run: node %d decided %d frames, want %d", u, full.calls[u], full.cfg.MaxFrames)
				}
				if c > full.calls[u] {
					t.Fatalf("node %d decided %d frames stopping, %d in the full run", u, c, full.calls[u])
				}
				fewer = fewer || c < full.calls[u]
			}
			if fewer && !rs.Complete {
				t.Fatal("an incomplete run stopped before MaxFrames")
			}
			if fewer {
				stopped++
			}
		})
	}
	// The grid must exercise the stop itself, not only runs to the horizon.
	if stopped == 0 {
		t.Fatal("no scenario stopped before MaxFrames; the test is vacuous")
	}
}

// TestAsyncObservedMatchesUnobserved pins that an observer never changes a
// run: each scenario runs with no observer and with one subscribed to every
// event kind, and the two must agree on every result and on every node's
// NextFrame call count.
func TestAsyncObservedMatchesUnobserved(t *testing.T) {
	for _, sc := range windowScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			plain := sc.build(t)
			rp := runWindow(t, plain)
			observed := sc.build(t)
			events := 0
			observed.cfg.Observer = ObserverFunc(func(Event) { events++ })
			ro := runWindow(t, observed)
			if events == 0 {
				t.Fatal("the observer saw no event")
			}
			sameRunResults(t, "unobserved vs observed", plain, observed, rp, ro)
			if !reflect.DeepEqual(plain.calls, observed.calls) {
				t.Fatalf("NextFrame calls: unobserved %v, observed %v", plain.calls, observed.calls)
			}
		})
	}
}

// TestAsyncSinglePassGate pins which runs resolve every node's full
// MaxFrames: a dynamic run and one with RunToMaxFrames do, even when
// coverage completes early; every other run stops at completion, whether
// lossy or observed for any event kind.
func TestAsyncSinglePassGate(t *testing.T) {
	sc := windowScenarios(t)[0]
	noop := ObserverFunc(func(Event) {})
	cases := []struct {
		name     string
		edit     func(t *testing.T, cfg *AsyncConfig)
		fullPass bool
	}{
		{"plain", func(*testing.T, *AsyncConfig) {}, false},
		{"mask-0 observer", func(_ *testing.T, cfg *AsyncConfig) { cfg.Observer = OnlyEvents(0, noop) }, false},
		{"lossy", func(t *testing.T, cfg *AsyncConfig) {
			loss, err := NewLossModel(0.1, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Loss = loss
		}, false},
		{"dynamic", func(t *testing.T, cfg *AsyncConfig) {
			const epochLen = 60
			epochs := int(float64(cfg.MaxFrames)*cfg.FrameLen*(1+clock.MaxAsyncDrift)/epochLen) + 1
			w, err := dynamics.NewWorld(cfg.Network, dynamics.Spec{
				EpochLen: epochLen,
				Churn:    &dynamics.Churn{JoinFraction: 0.3, JoinWindow: 4, LeaveFraction: 0.2, LeaveWindow: 6},
			}, epochs, rng.New(6))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Dynamics = w
		}, true},
		{"run-to-max-frames", func(_ *testing.T, cfg *AsyncConfig) { cfg.RunToMaxFrames = true }, true},
		{"frame-start observer", func(_ *testing.T, cfg *AsyncConfig) {
			cfg.Observer = OnlyEvents(MaskOf(EventFrameStart), noop)
		}, false},
		{"frame-resolve observer", func(_ *testing.T, cfg *AsyncConfig) {
			cfg.Observer = OnlyEvents(MaskOf(EventFrameResolve), noop)
		}, false},
		{"deliver observer", func(_ *testing.T, cfg *AsyncConfig) {
			cfg.Observer = DeliverObserver(func(float64, topology.NodeID, topology.NodeID, channel.ID) {})
		}, false},
		{"unmasked observer", func(_ *testing.T, cfg *AsyncConfig) { cfg.Observer = noop }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := sc.build(t)
			c.edit(t, &run.cfg)
			res := runWindow(t, run)
			if run.cfg.Dynamics == nil && !res.Complete {
				t.Fatal("scenario did not complete; the gate test is vacuous")
			}
			full := true
			for _, calls := range run.calls {
				full = full && calls == run.cfg.MaxFrames
			}
			if full != c.fullPass {
				t.Fatalf("NextFrame calls %v of %d frames; want full pass %v", run.calls, run.cfg.MaxFrames, c.fullPass)
			}
		})
	}
}

// TestRunAsyncWindowSizedState guards the sizing of RunAsync's per-run
// state: a run with a budget of a million frames that completes within its
// first reservations must allocate for the frames it resolves — timeline
// boundaries, drift memos, frame tables and the transmit bucket table —
// not for MaxFrames (which would be hundreds of MB on these four nodes).
func TestRunAsyncWindowSizedState(t *testing.T) {
	nw, err := topology.Clique(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 2); err != nil {
		t.Fatal(err)
	}
	root := rng.New(404)
	nodes := make([]AsyncNode, nw.N())
	calls := make([]int, nw.N())
	log := new([]topology.Link)
	for u := range nodes {
		p, err := core.NewAsync(nw.Avail(topology.NodeID(u)), 2, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		drift, err := clock.NewRandomWalk(clock.MaxAsyncDrift, 0.03, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		nodes[u] = AsyncNode{
			Protocol: loggedAsync{Async: p, id: topology.NodeID(u), log: log, calls: &calls[u]},
			Start:    root.Float64() * 6, Drift: drift,
		}
	}
	const maxFrames = 1_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunAsync(AsyncConfig{Network: nw, Nodes: nodes, FrameLen: 3, MaxFrames: maxFrames})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || slices.Max(calls) > 3*firstReservedFrames {
		t.Fatalf("run complete=%v after %v frames; the guard needs a run that stops within its first two reservations", res.Complete, calls)
	}
	const limit = 2 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%v of %d frames decided, %d bytes allocated", calls, maxFrames, got)
	if got > limit {
		t.Fatalf("RunAsync deciding %v of %d frames allocated %d bytes; want at most %d", calls, maxFrames, got, limit)
	}
}
