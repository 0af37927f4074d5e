package sim

// Differential sweep for RunSync's per-run resolver path selection (see
// syncRun in sync_resolve.go). Without a tiling the engine resolves on the
// listener-major word kernel, or on the scalar candidate scan when the
// mask table is over budget; the observer's event subscription and the
// loss model pick which events the kernel emits and whether it draws.
// Every configuration must behave as if it executed resolveSlotNaive's
// listener-major loop; these tests replay the same seeded scenarios
// through each engine configuration and pin them all to the naive
// reference.

import (
	"fmt"
	"strings"
	"testing"

	"m2hew/internal/dynamics"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// naiveDeliveries resolves a whole scripted run through resolveSlotNaive.
func naiveDeliveries(nw *topology.Network, script [][]radio.Action, loss *LossModel) []refDelivery {
	var out []refDelivery
	for slot, actions := range script {
		out = append(out, resolveSlotNaive(nw, slot, actions, loss)...)
	}
	return out
}

// perNode groups a delivery sequence by receiver, preserving order. Within
// one slot each receiver hears at most once, so per-receiver order is
// well-defined regardless of how a resolver interleaves receivers inside a
// slot — which is exactly the freedom the tiled path exploits.
func perNode(n int, ds []refDelivery) [][]refDelivery {
	out := make([][]refDelivery, n)
	for _, d := range ds {
		out[d.to] = append(out[d.to], d)
	}
	return out
}

// runScripted executes a scripted run and returns the deliveries each
// protocol actually received (from the protocols' own Deliver records, so
// it works with and without an observer) plus the observer's delivery
// events when obs collected any.
func runScripted(t *testing.T, nw *topology.Network, script [][]radio.Action, cfg SyncConfig) [][]refDelivery {
	t.Helper()
	n := nw.N()
	protos := make([]SyncProtocol, n)
	scripts := make([]*scriptSync, n)
	for u := 0; u < n; u++ {
		actions := make([]radio.Action, len(script))
		for slot := range script {
			actions[slot] = script[slot][u]
		}
		scripts[u] = &scriptSync{actions: actions}
		protos[u] = scripts[u]
	}
	cfg.Network = nw
	cfg.Protocols = protos
	cfg.MaxSlots = len(script)
	cfg.RunToMaxSlots = true
	if _, err := RunSync(cfg); err != nil {
		t.Fatal(err)
	}
	got := make([][]refDelivery, n)
	for u, s := range scripts {
		for _, msg := range s.delivered {
			got[u] = append(got[u], refDelivery{from: msg.From, to: topology.NodeID(u)})
		}
	}
	return got
}

// comparePerNode checks each receiver's delivery sequence (sender order)
// against the reference, ignoring slot stamps when the got side lacks them.
func comparePerNode(t *testing.T, label string, got, want [][]refDelivery) {
	t.Helper()
	for u := range want {
		if len(got[u]) != len(want[u]) {
			t.Fatalf("%s: node %d received %d deliveries, reference %d", label, u, len(got[u]), len(want[u]))
		}
		for i := range want[u] {
			if got[u][i].from != want[u][i].from {
				t.Fatalf("%s: node %d delivery %d from %d, reference from %d",
					label, u, i, got[u][i].from, want[u][i].from)
			}
		}
	}
}

// TestSyncResolverPathsAgree replays seeded random scenarios through every
// engine configuration — no observer, an observer subscribed to no
// per-listener kind, a full observer, a deliveries-only subscription —
// and pins each to resolveSlotNaive. Scenario densities range over 0, 1
// and 2+ transmitters per channel (randomScenario's action mix), with and
// without span restriction and asymmetric links.
func TestSyncResolverPathsAgree(t *testing.T) {
	root := rng.New(20260808)
	for trial := 0; trial < 80; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("scenario%03d", trial), func(t *testing.T) {
			nw, script := randomScenario(t, r)
			want := perNode(nw.N(), naiveDeliveries(nw, script, nil))

			// No observer at all.
			got := runScripted(t, nw, script, SyncConfig{})
			comparePerNode(t, "no-observer", got, want)

			// An observer subscribed only to slot events, so no
			// per-listener event order constrains the engine.
			slots := 0
			got = runScripted(t, nw, script, SyncConfig{
				Observer: OnlyEvents(MaskOf(EventSlot), ObserverFunc(func(e Event) { slots++ })),
			})
			comparePerNode(t, "slot-only observer", got, want)
			if slots != len(script) {
				t.Fatalf("slot-only observer saw %d slot events, want %d", slots, len(script))
			}

			// Full observer. The observer's delivery events must also
			// appear in (slot, listener) order.
			var events []refDelivery
			got = runScripted(t, nw, script, SyncConfig{
				Observer: ObserverFunc(func(e Event) {
					if e.Kind == EventDeliver {
						events = append(events, refDelivery{slot: e.Slot, from: e.From, to: e.To})
					}
				}),
			})
			comparePerNode(t, "full observer", got, want)
			flat := naiveDeliveries(nw, script, nil)
			if len(events) != len(flat) {
				t.Fatalf("full observer saw %d delivery events, reference %d", len(events), len(flat))
			}
			for i := range flat {
				if events[i] != flat[i] {
					t.Fatalf("full observer event %d = %+v, reference %+v", i, events[i], flat[i])
				}
			}

			// Kernel path, deliveries-only subscription: masking must not
			// change what is delivered or the order of delivery events.
			events = events[:0]
			got = runScripted(t, nw, script, SyncConfig{
				Observer: OnlyEvents(MaskOf(EventDeliver), ObserverFunc(func(e Event) {
					events = append(events, refDelivery{slot: e.Slot, from: e.From, to: e.To})
				})),
			})
			comparePerNode(t, "deliver-only observer", got, want)
			for i := range flat {
				if events[i] != flat[i] {
					t.Fatalf("deliver-only event %d = %+v, reference %+v", i, events[i], flat[i])
				}
			}
		})
	}
}

// TestSyncResolverPathsAgreeLossy pins the lossy kernel path — with full
// and with deliveries-only subscriptions — to the naive reference with an
// identically seeded erasure stream. A resolver that reorders listeners,
// skips a draw, or draws for an event it no longer emits desynchronizes
// the stream and diverges.
func TestSyncResolverPathsAgreeLossy(t *testing.T) {
	root := rng.New(20260809)
	for trial := 0; trial < 60; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("scenario%03d", trial), func(t *testing.T) {
			nw, script := randomScenario(t, r)
			prob := 0.1 + r.Float64()*0.6
			lossSeed := r.Uint64()

			loss := func() *LossModel {
				m, err := NewLossModel(prob, rng.New(lossSeed))
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			want := perNode(nw.N(), naiveDeliveries(nw, script, loss()))

			got := runScripted(t, nw, script, SyncConfig{Loss: loss()})
			comparePerNode(t, "lossy no-observer", got, want)

			got = runScripted(t, nw, script, SyncConfig{
				Loss:     loss(),
				Observer: OnlyEvents(MaskOf(EventDeliver), ObserverFunc(func(Event) {})),
			})
			comparePerNode(t, "lossy deliver-only observer", got, want)
		})
	}
}

// TestSyncStartSlotsMatchNaive pins staggered starts across resolver
// paths: the engine sees per-node local scripts plus StartSlots, the
// reference sees the equivalent flat global script with explicit quiet
// prefixes.
func TestSyncStartSlotsMatchNaive(t *testing.T) {
	root := rng.New(20260810)
	for trial := 0; trial < 40; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("scenario%03d", trial), func(t *testing.T) {
			nw, script := randomScenario(t, r)
			n := nw.N()
			starts := make([]int, n)
			maxStart := 0
			for u := range starts {
				starts[u] = r.IntN(6)
				if starts[u] > maxStart {
					maxStart = starts[u]
				}
			}
			slots := len(script) + maxStart

			// The reference's global script: node u quiet before starts[u],
			// then its local script; past its script end, repeat the last
			// action (scriptSync's clamping behaviour).
			global := make([][]radio.Action, slots)
			for s := range global {
				global[s] = make([]radio.Action, n)
				for u := 0; u < n; u++ {
					local := s - starts[u]
					switch {
					case local < 0:
						global[s][u] = radio.Action{Mode: radio.Quiet}
					case local < len(script):
						global[s][u] = script[local][u]
					default:
						global[s][u] = script[len(script)-1][u]
					}
				}
			}
			want := perNode(n, naiveDeliveries(nw, global, nil))

			for _, tc := range []struct {
				label string
				cfg   SyncConfig
			}{
				{"no-observer", SyncConfig{StartSlots: starts}},
				{"full observer", SyncConfig{StartSlots: starts, Observer: ObserverFunc(func(Event) {})}},
			} {
				protos := make([]SyncProtocol, n)
				scripts := make([]*scriptSync, n)
				for u := 0; u < n; u++ {
					actions := make([]radio.Action, len(script))
					for s := range script {
						actions[s] = script[s][u]
					}
					scripts[u] = &scriptSync{actions: actions}
					protos[u] = scripts[u]
				}
				tc.cfg.Network = nw
				tc.cfg.Protocols = protos
				tc.cfg.MaxSlots = slots
				tc.cfg.RunToMaxSlots = true
				if _, err := RunSync(tc.cfg); err != nil {
					t.Fatal(err)
				}
				got := make([][]refDelivery, n)
				for u, s := range scripts {
					for _, msg := range s.delivered {
						got[u] = append(got[u], refDelivery{from: msg.From, to: topology.NodeID(u)})
					}
				}
				comparePerNode(t, tc.label, got, want)
			}
		})
	}
}

// TestSyncRejectsLossWithoutRng is the regression test for the
// hand-constructed loss model footgun: &LossModel{Prob: p} with no Rng
// used to nil-panic at the first erasure draw deep inside the slot loop;
// it must surface as a config error before the run starts.
func TestSyncRejectsLossWithoutRng(t *testing.T) {
	nw, err := topology.Clique(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 1); err != nil {
		t.Fatal(err)
	}
	protos := []SyncProtocol{
		&scriptSync{actions: []radio.Action{{Mode: radio.Transmit, Channel: 0}}},
		&scriptSync{actions: []radio.Action{{Mode: radio.Receive, Channel: 0}}},
	}
	_, err = RunSync(SyncConfig{
		Network:   nw,
		Protocols: protos,
		MaxSlots:  4,
		Loss:      &LossModel{Prob: 0.5},
	})
	if err == nil {
		t.Fatal("RunSync accepted a loss model with no rng")
	}
	if !strings.Contains(err.Error(), "rng") {
		t.Fatalf("error %q does not mention the missing rng", err)
	}
	// Prob 0 without an rng is a valid reliable-channel model and must
	// still be accepted.
	if _, err := RunSync(SyncConfig{
		Network:   nw,
		Protocols: protos,
		MaxSlots:  4,
		Loss:      &LossModel{},
	}); err != nil {
		t.Fatalf("RunSync rejected a zero-probability loss model: %v", err)
	}
}

// TestSyncBatchedPathSteadyStateAllocs drives repeated scratch-reusing
// runs down the kernel path, unobserved and under a masked observer, and
// bounds per-run allocations: the resolvers must live entirely off
// scratch buffers, leaving only the fixed per-run setup (result, coverage,
// message sets).
func TestSyncBatchedPathSteadyStateAllocs(t *testing.T) {
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
		actions := make([]radio.Action, 64)
		for s := range actions {
			c, err := avail.Pick(r)
			if err != nil {
				t.Fatal(err)
			}
			mode := radio.Receive
			if r.Bernoulli(0.4) {
				mode = radio.Transmit
			}
			actions[s] = radio.Action{Mode: mode, Channel: c}
		}
		protos[u] = &sinkSync{act: actions[0]}
	}
	scratch := NewSyncScratch()
	for _, tc := range []struct {
		label string
		obs   Observer
	}{
		{"unobserved", nil},
		{"kernel-masked", OnlyEvents(MaskOf(EventDeliver), ObserverFunc(func(Event) {}))},
	} {
		run := func() {
			if _, err := RunSync(SyncConfig{
				Network:       nw,
				Protocols:     protos,
				MaxSlots:      64,
				RunToMaxSlots: true,
				Scratch:       scratch,
				Observer:      tc.obs,
			}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the scratch
		if allocs := testing.AllocsPerRun(10, run); allocs > 80 {
			t.Errorf("%s path allocated %.0f objects per scratch-reusing run", tc.label, allocs)
		}
	}
}

// TestSyncDynamicsObserverInvariance covers the dynamics axis of the
// resolver sweep: churn and primary-user epochs resolve on the kernel
// paths over per-epoch masks (TestSyncDynamicPathsMatchScalar pins them to
// the scalar scan), and the observer's subscription (full, deliveries-only,
// slot-only, none) changes only which events are constructed — never
// coverage. A want-gate that accidentally guarded a delivery or a loss draw
// would split these.
func TestSyncDynamicsObserverInvariance(t *testing.T) {
	const maxSlots, epochSlots = 4000, 200
	nw := diffNet(t, 9, 12)
	spec := dynamics.Spec{
		EpochLen: epochSlots,
		Churn:    &dynamics.Churn{JoinFraction: 0.4, JoinWindow: 10, LeaveFraction: 0.2, LeaveWindow: 10},
		Primary:  &dynamics.Primary{Events: 2, Duration: 5, Radius: 0.4},
	}
	run := func(obs Observer, lossy bool) *SyncResult {
		t.Helper()
		world, err := dynamics.NewWorld(nw, spec, maxSlots/epochSlots, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		cfg := SyncConfig{
			Network:   nw,
			Protocols: syncProtos(t, nw, 55),
			MaxSlots:  maxSlots,
			Dynamics:  world,
			Observer:  obs,
		}
		if lossy {
			if cfg.Loss, err = NewLossModel(0.3, rng.New(99)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := RunSync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, lossy := range []bool{false, true} {
		base := run(nil, lossy)
		sameCoverage(t, "dynamics full observer", base.Coverage,
			run(ObserverFunc(func(Event) {}), lossy).Coverage)
		sameCoverage(t, "dynamics deliver-only", base.Coverage,
			run(OnlyEvents(MaskOf(EventDeliver), ObserverFunc(func(Event) {})), lossy).Coverage)
		sameCoverage(t, "dynamics slot-only", base.Coverage,
			run(OnlyEvents(MaskOf(EventSlot), ObserverFunc(func(Event) {})), lossy).Coverage)
	}
}
