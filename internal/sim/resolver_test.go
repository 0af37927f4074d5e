package sim

// Differential and regression tests for the optimized reception resolvers.
//
// Two properties are pinned here on top of the scripted differential suites
// in differential_test.go / differential_async_test.go:
//
//  1. Loss-model draw order. The erasure RNG is consumed mid-resolution, so
//     an "equivalent" resolver that filters candidates in a different order,
//     drops the collision early-break, or draws before the span check would
//     produce different runs at the same seed. resolveSlotNaive restates the
//     synchronous contract from first principles (the Phase-2 comment in
//     sync.go points here); resolveFrameNaive is the asynchronous reference.
//     Both are replayed against the production paths with identically seeded
//     loss models.
//
//  2. Steady-state allocation freedom. The resolvers reuse env-owned
//     buffers and share per-sender message sets; AllocsPerRun guards keep
//     per-slot / per-frame / per-delivery allocations from creeping back.

import (
	"fmt"
	"sort"
	"testing"

	"m2hew/internal/clock"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// resolveSlotNaive restates the synchronous engine's Phase-2 reception rule
// for one slot from first principles, including the loss draw contract:
// exactly one erasure draw per neighbor that transmits on the listener's
// channel over an operating link, consumed in ascending neighbor order,
// stopping at the second surviving transmission (a collision needs no
// further evidence). RunSync must behave as if it executed this loop, even
// though it actually walks a precomputed candidate table behind a per-slot
// channel-occupancy index.
func resolveSlotNaive(nw *topology.Network, slot int, actions []radio.Action, loss *LossModel) []refDelivery {
	var out []refDelivery
	for u := 0; u < nw.N(); u++ {
		if actions[u].Mode != radio.Receive {
			continue
		}
		uid := topology.NodeID(u)
		c := actions[u].Channel
		var sender topology.NodeID
		senders := 0
		for _, v := range nw.Neighbors(uid) {
			if actions[v].Mode != radio.Transmit || actions[v].Channel != c {
				continue
			}
			if !nw.Reaches(v, uid) || !nw.Span(uid, v).Contains(c) {
				continue
			}
			if loss.erased() {
				continue
			}
			senders++
			sender = v
			if senders > 1 {
				break
			}
		}
		if senders == 1 {
			out = append(out, refDelivery{slot: slot, from: sender, to: uid})
		}
	}
	return out
}

// replaySyncLoss plays a fixed action script through RunSync with a loss
// model and collects the engine's deliveries.
func replaySyncLoss(t *testing.T, nw *topology.Network, script [][]radio.Action, loss *LossModel) []refDelivery {
	t.Helper()
	n := nw.N()
	protos := make([]SyncProtocol, n)
	for u := 0; u < n; u++ {
		actions := make([]radio.Action, len(script))
		for slot := range script {
			actions[slot] = script[slot][u]
		}
		protos[u] = &scriptSync{actions: actions}
	}
	var got []refDelivery
	_, err := RunSync(SyncConfig{
		Network:       nw,
		Protocols:     protos,
		MaxSlots:      len(script),
		RunToMaxSlots: true,
		Loss:          loss,
		Observer: ObserverFunc(func(e Event) {
			if e.Kind == EventDeliver {
				got = append(got, refDelivery{slot: e.Slot, from: e.From, to: e.To})
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSyncLossDrawOrderLocked replays random lossy scenarios through both
// RunSync and resolveSlotNaive with identically seeded erasure RNGs. Any
// change to the engine's draw consumption — order, count, or the early
// break at the second surviving sender — desynchronizes the two streams and
// diverges on some scenario.
func TestSyncLossDrawOrderLocked(t *testing.T) {
	root := rng.New(20260805)
	for trial := 0; trial < 120; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("scenario%03d", trial), func(t *testing.T) {
			nw, script := randomScenario(t, r)
			prob := 0.1 + r.Float64()*0.6
			lossSeed := r.Uint64()

			engineLoss, err := NewLossModel(prob, rng.New(lossSeed))
			if err != nil {
				t.Fatal(err)
			}
			got := replaySyncLoss(t, nw, script, engineLoss)

			naiveLoss, err := NewLossModel(prob, rng.New(lossSeed))
			if err != nil {
				t.Fatal(err)
			}
			var want []refDelivery
			for slot, actions := range script {
				want = append(want, resolveSlotNaive(nw, slot, actions, naiveLoss)...)
			}

			if len(got) != len(want) {
				t.Fatalf("engine delivered %d, naive %d\nengine: %v\nnaive: %v",
					len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("delivery %d: engine %+v, naive %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// scriptTables primes sc's env for a run of frame scripts on nw: it builds
// each node's timeline from its scripted start, then appends every scripted
// frame through appendFrame, the helper the engines' generate step uses, so
// the frame tables and the transmit bucket table are the engines' own.
func scriptTables(t *testing.T, sc *AsyncScratch, nw *topology.Network, script [][]radio.Action,
	starts []float64, frameLen float64, slotsPerFrame int, loss *LossModel) *asyncEnv {
	t.Helper()
	n := len(script)
	timelines := make([]*clock.Timeline, n)
	for u := 0; u < n; u++ {
		tl, err := clock.NewTimeline(starts[u], frameLen, slotsPerFrame, nil)
		if err != nil {
			t.Fatal(err)
		}
		timelines[u] = tl
	}
	env := sc.envFor(nw, timelines, slotsPerFrame, loss)
	for u := 0; u < n; u++ {
		for _, a := range script[u] {
			env.appendFrame(u, a)
		}
	}
	return env
}

// scriptedAsyncEnv builds an asyncEnv from per-node frame scripts on a
// fresh scratch (scriptTables), so resolver tests can drive resolveFrame
// without a full engine run.
func scriptedAsyncEnv(t *testing.T, nw *topology.Network, script [][]radio.Action,
	starts []float64, frameLen float64, slotsPerFrame int, loss *LossModel) *asyncEnv {
	t.Helper()
	return scriptTables(t, NewAsyncScratch(), nw, script, starts, frameLen, slotsPerFrame, loss)
}

// resolveScripted resolves uid's frame f the way the engines do: the
// listener's candidate row is looked up once and handed to resolveFrame.
func resolveScripted(env *asyncEnv, uid topology.NodeID, f int) []delivery {
	g := env.frames[uid][f]
	return env.resolveFrame(uid, g, env.candsFor(uid, g))
}

// resolveFrameNaive is the asynchronous reference resolver: frame reception
// restated from first principles, allocating fresh state per frame. Each
// candidate's first overlapping frame comes from a plain lower bound over
// its frame starts (no cursor: it shares no search state with production),
// and the clear check is the quadratic all-pairs scan. Collection walks
// candidates, then frames, then slots in the same ascending order as
// collectSlots and draws one erasure per overlapping slot, so identically
// seeded loss models consume identical draw sequences.
func (env *asyncEnv) resolveFrameNaive(uid topology.NodeID, g asyncFrame) []delivery {
	if g.action.Mode != radio.Receive {
		return nil
	}
	c := g.action.Channel
	var slots []txSlot
	for _, cand := range env.candsFor(uid, g) {
		if !cand.Span.Contains(c) {
			continue
		}
		w := cand.From
		wf := env.frames[w]
		first := sort.Search(len(wf), func(i int) bool { return wf[i].start >= g.start })
		for f := max(first-1, 0); f < len(wf); f++ {
			fr := wf[f]
			if fr.start >= g.end {
				break
			}
			if fr.end <= g.start || fr.action.Mode != radio.Transmit || fr.action.Channel != c {
				continue
			}
			for s := 0; s < env.slotsPerFrame; s++ {
				ss, se := env.timelines[w].FrameSlotInterval(f, s)
				if se <= g.start || ss >= g.end {
					continue
				}
				if env.loss.erased() {
					continue
				}
				slots = append(slots, txSlot{start: ss, end: se, from: w})
			}
		}
	}
	var out []delivery
	delivered := make(map[topology.NodeID]bool)
	for i, cand := range slots {
		if delivered[cand.from] {
			continue
		}
		if cand.start < g.start || cand.end > g.end {
			continue // partially heard: cannot be decoded
		}
		clear := true
		for j, other := range slots {
			if i == j || other.from == cand.from {
				continue
			}
			if other.start < cand.end && cand.start < other.end {
				clear = false
				break
			}
		}
		if clear {
			delivered[cand.from] = true
			out = append(out, delivery{at: cand.end, from: cand.from, to: uid, ch: c})
		}
	}
	return out
}

// sameDeliveries fails the test unless the resolver's deliveries for node u
// frame f equal the reference's.
func sameDeliveries(t *testing.T, u, f int, got, want []delivery) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("node %d frame %d: fast %d deliveries, naive %d\nfast: %v\nnaive: %v",
			u, f, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node %d frame %d delivery %d: fast %+v, naive %+v",
				u, f, i, got[i], want[i])
		}
	}
}

// randomAsyncScript builds a random network plus per-node frame scripts
// (4 to frameSpan+3 frames per node) and start offsets for resolver-level
// tests.
func randomAsyncScript(t *testing.T, r *rng.Source, frameSpan int) (*topology.Network, [][]radio.Action, []float64, float64, int) {
	t.Helper()
	n := r.IntN(5) + 2
	universe := r.IntN(3) + 1
	nw, err := topology.ErdosRenyi(n, 0.6, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignBernoulli(nw, universe, 0.7, r); err != nil {
		t.Fatal(err)
	}
	if r.Bernoulli(0.4) {
		if err := topology.DropRandomDirections(nw, 0.5, r); err != nil {
			t.Fatal(err)
		}
	}
	slotsPerFrame := r.IntN(3) + 1
	frames := r.IntN(frameSpan) + 4
	frameLen := 1 + r.Float64()*4
	script := make([][]radio.Action, n)
	starts := make([]float64, n)
	for u := 0; u < n; u++ {
		avail := nw.Avail(topology.NodeID(u))
		script[u] = make([]radio.Action, frames)
		for f := 0; f < frames; f++ {
			switch r.IntN(5) {
			case 0:
				script[u][f] = radio.Action{Mode: radio.Quiet}
			case 1, 2:
				c, err := avail.Pick(r)
				if err != nil {
					t.Fatal(err)
				}
				script[u][f] = radio.Action{Mode: radio.Transmit, Channel: c}
			default:
				c, err := avail.Pick(r)
				if err != nil {
					t.Fatal(err)
				}
				script[u][f] = radio.Action{Mode: radio.Receive, Channel: c}
			}
		}
		starts[u] = r.Float64() * 3 * frameLen
	}
	return nw, script, starts, frameLen, slotsPerFrame
}

// TestResolveFrameMatchesNaive pins the sweep-based resolveFrame to the
// quadratic resolveFrameNaive over random scenarios, with and without a
// loss model. The two envs carry identically seeded erasure RNGs; the draws
// happen during collection, which both resolvers share, so any divergence —
// deliveries or draw consumption — surfaces as a mismatch.
func TestResolveFrameMatchesNaive(t *testing.T) {
	root := rng.New(80520260)
	for trial := 0; trial < 120; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("scenario%03d", trial), func(t *testing.T) {
			nw, script, starts, frameLen, slotsPerFrame := randomAsyncScript(t, r, 16)

			var fastLoss, naiveLoss *LossModel
			if r.Bernoulli(0.6) {
				prob := 0.1 + r.Float64()*0.6
				lossSeed := r.Uint64()
				var err error
				if fastLoss, err = NewLossModel(prob, rng.New(lossSeed)); err != nil {
					t.Fatal(err)
				}
				if naiveLoss, err = NewLossModel(prob, rng.New(lossSeed)); err != nil {
					t.Fatal(err)
				}
			}
			fast := scriptedAsyncEnv(t, nw, script, starts, frameLen, slotsPerFrame, fastLoss)
			naive := scriptedAsyncEnv(t, nw, script, starts, frameLen, slotsPerFrame, naiveLoss)

			for u := 0; u < nw.N(); u++ {
				uid := topology.NodeID(u)
				for f := range script[u] {
					got := resolveScripted(fast, uid, f)
					want := naive.resolveFrameNaive(uid, naive.frames[u][f])
					sameDeliveries(t, u, f, got, want)
				}
			}
		})
	}
}

// TestTxBucketsCoverOverlaps pins the transmit bucket table's superset
// property, on which collectSlots' skip rests: for every listening frame
// and every transmit frame on its channel that overlaps it for a positive
// length, the sender's bit is set in one of the listening frame's buckets.
// Clocks start at random offsets and drift as random walks at the maximum
// asynchronous drift, so frames run up to 1/(1−δ) nominal frames long and
// touch two or three buckets; 1–5 slots per frame; up to 130 nodes, so
// masks span several words. Frames enter the env through appendFrame, as
// in the engines. The test also requires overlaps found only in a frame's
// last bucket, so a probe that stops one bucket short fails it.
func TestTxBucketsCoverOverlaps(t *testing.T) {
	root := rng.New(2323)
	lastOnly := 0
	for trial := 0; trial < 30; trial++ {
		r := root.Split()
		n := 2 + r.IntN(129)
		nw, err := topology.Clique(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := topology.AssignBernoulli(nw, 1+r.IntN(4), 0.7, r); err != nil {
			t.Fatal(err)
		}
		slotsPerFrame := 1 + r.IntN(5)
		frameLen := 0.5 + r.Float64()*3
		timelines := make([]*clock.Timeline, n)
		for u := range timelines {
			drift, err := clock.NewRandomWalk(clock.MaxAsyncDrift, 0.05, r.Split())
			if err != nil {
				t.Fatal(err)
			}
			if timelines[u], err = clock.NewTimeline(r.Float64()*8*frameLen, frameLen, slotsPerFrame, drift); err != nil {
				t.Fatal(err)
			}
		}
		env := NewAsyncScratch().envFor(nw, timelines, slotsPerFrame, nil)
		for u := 0; u < n; u++ {
			avail := nw.Avail(topology.NodeID(u))
			for f := 0; f < 30; f++ {
				a := radio.Action{Mode: radio.Quiet}
				if c, err := avail.Pick(r); err == nil {
					a = radio.Action{Mode: radio.Receive, Channel: c}
					if r.Bernoulli(0.5) {
						a.Mode = radio.Transmit
					}
				}
				env.appendFrame(u, a)
			}
		}
		for u := 0; u < n; u++ {
			for _, g := range env.frames[u] {
				if g.action.Mode != radio.Receive {
					continue
				}
				c := g.action.Channel
				first, last := env.bucket(g.start), env.bucket(g.end)
				for w := 0; w < n; w++ {
					if w == u {
						continue
					}
					for _, fr := range env.frames[w] {
						if fr.action.Mode != radio.Transmit || fr.action.Channel != c || fr.start >= g.end || fr.end <= g.start {
							continue
						}
						if !env.txOn(topology.NodeID(w), c, first, last) {
							t.Fatalf("trial %d: listener %d frame [%v, %v) on channel %d misses sender %d's overlapping frame [%v, %v)",
								trial, u, g.start, g.end, c, w, fr.start, fr.end)
						}
						if last > first && !env.txOn(topology.NodeID(w), c, first, last-1) {
							lastOnly++
						}
					}
				}
			}
		}
	}
	if lastOnly == 0 {
		t.Fatal("no overlap was visible only in a listening frame's last bucket; the probe's upper end went untested")
	}
	t.Logf("%d overlaps visible only in the last bucket", lastOnly)
}

// TestResolveFrameCursorRobust pins the frame-search cursors to the
// reference under call orders the engines never produce: every frame of a
// scenario resolved in shuffled order, some frames twice in a row, and one
// scratch env reused across scenarios of different n and frame counts, so
// cursors left by one scenario point anywhere in — or past the end of — the
// next one's tables. The cursors are only search hints: every delivery list
// must equal the reference's. Both envs resolve the same sequence with
// identically seeded loss models, so draw order is compared too.
func TestResolveFrameCursorRobust(t *testing.T) {
	root := rng.New(15150)
	sc := NewAsyncScratch() // one env for every scenario
	prevFrames, shrank := 0, 0
	for trial := 0; trial < 80; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("scenario%03d", trial), func(t *testing.T) {
			nw, script, starts, frameLen, slotsPerFrame := randomAsyncScript(t, r, 60)
			if len(script[0]) < prevFrames {
				shrank++
			}
			prevFrames = len(script[0])

			var fastLoss, naiveLoss *LossModel
			if r.Bernoulli(0.5) {
				lossSeed := r.Uint64()
				var err error
				if fastLoss, err = NewLossModel(0.3, rng.New(lossSeed)); err != nil {
					t.Fatal(err)
				}
				if naiveLoss, err = NewLossModel(0.3, rng.New(lossSeed)); err != nil {
					t.Fatal(err)
				}
			}
			fast := scriptTables(t, sc, nw, script, starts, frameLen, slotsPerFrame, fastLoss)
			naive := scriptedAsyncEnv(t, nw, script, starts, frameLen, slotsPerFrame, naiveLoss)

			type frameRef struct{ u, f int }
			var order []frameRef
			for u := range script {
				for f := range script[u] {
					order = append(order, frameRef{u, f})
				}
			}
			r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, o := range order {
				uid := topology.NodeID(o.u)
				repeats := 1
				if r.Bernoulli(0.2) {
					repeats = 2
				}
				for k := 0; k < repeats; k++ {
					got := resolveScripted(fast, uid, o.f)
					want := naive.resolveFrameNaive(uid, naive.frames[o.u][o.f])
					sameDeliveries(t, o.u, o.f, got, want)
				}
			}
		})
	}
	if shrank == 0 {
		t.Fatal("no scenario followed a longer one; stale out-of-range cursors went untested")
	}
}

// TestResolveFrameSteadyStateNoAllocs verifies that once the env's scratch
// buffers have grown to the scenario's working set, resolveFrame allocates
// nothing at all — the property that removed per-frame garbage from the
// asynchronous engines.
func TestResolveFrameSteadyStateNoAllocs(t *testing.T) {
	r := rng.New(99)
	nw, err := topology.GeometricConnected(12, 0.6, r, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignUniformK(nw, 4, 2, r); err != nil {
		t.Fatal(err)
	}
	script := make([][]radio.Action, nw.N())
	starts := make([]float64, nw.N())
	for u := 0; u < nw.N(); u++ {
		avail := nw.Avail(topology.NodeID(u))
		script[u] = make([]radio.Action, 40)
		for f := range script[u] {
			c, err := avail.Pick(r)
			if err != nil {
				t.Fatal(err)
			}
			mode := radio.Receive
			if r.Bernoulli(0.5) {
				mode = radio.Transmit
			}
			script[u][f] = radio.Action{Mode: mode, Channel: c}
		}
		starts[u] = r.Float64() * 2
	}
	env := scriptedAsyncEnv(t, nw, script, starts, 1.5, 3, nil)

	resolveAll := func() {
		for u := 0; u < nw.N(); u++ {
			uid := topology.NodeID(u)
			for f := range script[u] {
				resolveScripted(env, uid, f)
			}
		}
	}
	resolveAll() // warm up the scratch buffers
	if allocs := testing.AllocsPerRun(10, resolveAll); allocs > 0 {
		t.Errorf("resolveFrame allocated %.0f objects per full pass at steady state", allocs)
	}
}

// sinkSync repeats one action forever and counts deliveries without
// retaining them, so alloc guards can exercise the delivery path itself.
type sinkSync struct {
	act       radio.Action
	delivered int
}

func (s *sinkSync) Step(int) radio.Action   { return s.act }
func (s *sinkSync) Deliver(_ radio.Message) { s.delivered++ }

// TestSyncDeliveryPathNoAllocs drives a run where deliveries happen every
// slot and checks that the engine performs only its fixed per-run setup
// allocations: message available sets are shared per sender, not cloned per
// delivery, and repeat receptions leave the protocol tables untouched. One
// hidden per-delivery allocation would multiply by ~768 deliveries and blow
// the budget. (TestSyncNilObserverNoAllocs covers the all-transmit slot
// loop; this test covers the reception path.)
func TestSyncDeliveryPathNoAllocs(t *testing.T) {
	nw, err := topology.Clique(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 1); err != nil {
		t.Fatal(err)
	}
	protos := make([]SyncProtocol, 4)
	sinks := make([]*sinkSync, 4)
	for u := range protos {
		act := radio.Action{Mode: radio.Receive, Channel: 0}
		if u == 0 {
			act = radio.Action{Mode: radio.Transmit, Channel: 0}
		}
		sinks[u] = &sinkSync{act: act}
		protos[u] = sinks[u]
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := RunSync(SyncConfig{
			Network:       nw,
			Protocols:     protos,
			MaxSlots:      256,
			RunToMaxSlots: true,
		}); err != nil {
			t.Fatal(err)
		}
	})
	if sinks[1].delivered == 0 {
		t.Fatal("scenario produced no deliveries; the guard tests nothing")
	}
	if allocs > 100 {
		t.Errorf("RunSync delivery path allocated %.0f objects per run", allocs)
	}
}
