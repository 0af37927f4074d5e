package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/clock"
	"m2hew/internal/core"
	"m2hew/internal/dynamics"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// windowScenario is one seeded RunAsync configuration of the windowed-pass
// differential test. build returns a fresh config (protocols and drifts
// carry state) on the shared network, plus the protocols whose neighbor
// tables the test compares and the log of their Deliver calls.
type windowScenario struct {
	name  string
	build func(t *testing.T) (AsyncConfig, []*core.Async, *[]topology.Link)
}

// loggedAsync is Algorithm 4 appending each message it is handed to a log
// shared by all nodes of a run, so the test sees the engine's global
// delivery order.
type loggedAsync struct {
	*core.Async
	id  topology.NodeID
	log *[]topology.Link
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
		out = append(out, windowScenario{name: name, build: func(t *testing.T) (AsyncConfig, []*core.Async, *[]topology.Link) {
			root := rng.New(seed + 1000)
			const frameLen = 3
			nodes := make([]AsyncNode, nw.N())
			protos := make([]*core.Async, nw.N())
			log := new([]topology.Link)
			for u := range nodes {
				p, err := core.NewAsyncSlots(nw.Avail(topology.NodeID(u)), 6, slots, root.Split())
				if err != nil {
					t.Fatal(err)
				}
				protos[u] = p
				nodes[u] = AsyncNode{
					Protocol: loggedAsync{Async: p, id: topology.NodeID(u), log: log},
					Start:    root.Float64() * spread * frameLen,
					Drift:    windowDrift(t, drift, u, root.Split()),
				}
			}
			return AsyncConfig{
				Network:       nw,
				Nodes:         nodes,
				FrameLen:      frameLen,
				SlotsPerFrame: slots,
				MaxFrames:     maxFrames,
			}, protos, log
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

// TestAsyncWindowsMatchSinglePass is the differential test of RunAsync's
// frame windows: each scenario runs once plain (windowed, stopping at
// completion) and once with a no-op observer subscribed to EventFrameStart,
// which forces the single full pass. Every result the paper's claims read
// must agree exactly, and the windowed run's protocols must have been handed
// a prefix of the single pass's chronological delivery sequence.
func TestAsyncWindowsMatchSinglePass(t *testing.T) {
	forceSinglePass := OnlyEvents(MaskOf(EventFrameStart), ObserverFunc(func(Event) {}))
	stopped := 0
	for _, sc := range windowScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			cfg, protos, windowedLog := sc.build(t)
			windowed, err := RunAsync(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg, full, singleLog := sc.build(t)
			cfg.Observer = forceSinglePass
			single, err := RunAsync(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if single.FrameBudget != cfg.MaxFrames {
				t.Fatalf("single pass resolved %d frames, want %d", single.FrameBudget, cfg.MaxFrames)
			}
			if windowed.FrameBudget > single.FrameBudget {
				t.Fatalf("windowed run resolved %d frames, past the budget %d", windowed.FrameBudget, single.FrameBudget)
			}
			if windowed.Complete != single.Complete {
				t.Fatalf("Complete: windowed %v, single pass %v", windowed.Complete, single.Complete)
			}
			if windowed.CompletionTime != single.CompletionTime || windowed.Ts != single.Ts {
				t.Fatalf("(CompletionTime, Ts): windowed (%v, %v), single pass (%v, %v)",
					windowed.CompletionTime, windowed.Ts, single.CompletionTime, single.Ts)
			}
			if !reflect.DeepEqual(windowed.Coverage.Curve(), single.Coverage.Curve()) {
				t.Fatal("coverage curves differ")
			}
			if w, s := windowed.MinFullFrames(windowed.Ts, windowed.CompletionTime), single.MinFullFrames(single.Ts, single.CompletionTime); w != s {
				t.Fatalf("MinFullFrames: windowed %d, single pass %d", w, s)
			}
			for u := range protos {
				a, b := protos[u].Neighbors(), full[u].Neighbors()
				if !reflect.DeepEqual(a.Neighbors(), b.Neighbors()) {
					t.Fatalf("node %d neighbors: windowed %v, single pass %v", u, a.Neighbors(), b.Neighbors())
				}
				for _, v := range a.Neighbors() {
					ca, _ := a.Common(v)
					cb, _ := b.Common(v)
					if !ca.Equal(cb) {
						t.Fatalf("node %d neighbor %d: common %v vs %v", u, v, ca, cb)
					}
				}
			}
			if w, s := *windowedLog, *singleLog; len(w) > len(s) || !reflect.DeepEqual(w, s[:len(w)]) {
				t.Fatalf("windowed deliveries (%d) are not a prefix of the single pass's (%d)", len(w), len(s))
			}
			if windowed.Complete && windowed.FrameBudget < cfg.MaxFrames {
				stopped++
			}
		})
	}
	// The grid must exercise the stop itself, not only windows that run
	// to the horizon.
	if stopped == 0 {
		t.Fatal("no scenario stopped before MaxFrames; the test is vacuous")
	}
}

// TestAsyncSinglePassGate pins the windows' gate: runs that are lossy,
// dynamic, or observed for frame or delivery events resolve every node's
// full MaxFrames even when coverage completes early, while a mask-0
// observer leaves the windows on.
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
		}, true},
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
		{"frame-start observer", func(_ *testing.T, cfg *AsyncConfig) {
			cfg.Observer = OnlyEvents(MaskOf(EventFrameStart), noop)
		}, true},
		{"frame-resolve observer", func(_ *testing.T, cfg *AsyncConfig) {
			cfg.Observer = OnlyEvents(MaskOf(EventFrameResolve), noop)
		}, true},
		{"deliver observer", func(_ *testing.T, cfg *AsyncConfig) {
			cfg.Observer = DeliverObserver(func(float64, topology.NodeID, topology.NodeID, channel.ID) {})
		}, true},
		{"unmasked observer", func(_ *testing.T, cfg *AsyncConfig) { cfg.Observer = noop }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg, _, _ := sc.build(t)
			c.edit(t, &cfg)
			res, err := RunAsync(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Dynamics == nil && !res.Complete {
				t.Fatal("scenario did not complete; the gate test is vacuous")
			}
			if full := res.FrameBudget == cfg.MaxFrames; full != c.fullPass {
				t.Fatalf("resolved %d of %d frames; want full pass %v", res.FrameBudget, cfg.MaxFrames, c.fullPass)
			}
		})
	}
}

// TestRunAsyncWindowSizedState guards the window sizing of RunAsync's
// per-run state: a windowed run with a budget of a million frames that
// completes within its first windows must allocate for the frames it
// resolves — timeline boundaries, drift memos, frame tables and the
// transmit bucket table — not for MaxFrames (which would be hundreds of MB
// on these four nodes).
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
	for u := range nodes {
		p, err := core.NewAsync(nw.Avail(topology.NodeID(u)), 2, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		drift, err := clock.NewRandomWalk(clock.MaxAsyncDrift, 0.03, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		nodes[u] = AsyncNode{Protocol: p, Start: root.Float64() * 6, Drift: drift}
	}
	const maxFrames = 1_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunAsync(AsyncConfig{Network: nw, Nodes: nodes, FrameLen: 3, MaxFrames: maxFrames})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.FrameBudget > 3*firstAsyncWindow {
		t.Fatalf("run complete=%v after %d frames; the guard needs a run that stops within its first two windows", res.Complete, res.FrameBudget)
	}
	const limit = 2 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d of %d frames resolved, %d bytes allocated", res.FrameBudget, maxFrames, got)
	if got > limit {
		t.Fatalf("windowed RunAsync resolving %d of %d frames allocated %d bytes; want at most %d", res.FrameBudget, maxFrames, got, limit)
	}
}
