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
	"slices"
	"sort"
	"testing"

	"m2hew/internal/clock"
	"m2hew/internal/dynamics"
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
	env := sc.envFor(nw, nil, timelines, slotsPerFrame, loss)
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
// listener's candidate mask is looked up once and handed to resolveFrame.
func resolveScripted(env *asyncEnv, uid topology.NodeID, f int) []delivery {
	g := env.frames[uid][f]
	return env.resolveFrame(uid, g, env.maskFor(uid, g))
}

// candsFor returns the candidate table row maskFor resolves on for
// listener uid's frame g: the static network table, built here from the
// network rather than read from the engine's scratch, or the table of the
// epoch containing the frame's start.
func (env *asyncEnv) candsFor(uid topology.NodeID, g asyncFrame) []topology.Candidate {
	if env.world == nil {
		return env.nw.InboundCandidates()[uid]
	}
	return env.world.At(env.world.EpochOf(g.start)).Cands[uid]
}

// resolveFrameNaive is the asynchronous reference resolver: frame reception
// restated from first principles, allocating fresh state per frame. Each
// candidate's first overlapping frame comes from a plain lower bound over
// its frame starts (no frame index: it shares no search state with
// production), it walks the candidate row instead of the compiled masks,
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
// deliveries or draw consumption — surfaces as a mismatch. The wide
// scenarios reach what the small ones cannot: candidate rows spanning
// several NodeID words, channel IDs at or past 64 (spans of two or three
// words), and — in the epoch scenarios — a dynamic world whose epochs each
// compile their own candidate masks.
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
	var wideWords, highChannels, delivered int
	for trial := 0; trial < 24; trial++ {
		r := root.Split()
		name := fmt.Sprintf("wide%03d", trial)
		if trial%2 == 1 {
			name = fmt.Sprintf("epochs%03d", trial)
		}
		t.Run(name, func(t *testing.T) {
			nw, script, starts, frameLen, slotsPerFrame := wideAsyncScript(t, r)
			var world *dynamics.World
			if trial%2 == 1 {
				world = scriptWorld(t, r, nw, script, starts, frameLen)
			}
			fastLoss, naiveLoss := twinLoss(t, r, 0.5)
			fast := scriptedAsyncEnv(t, nw, script, starts, frameLen, slotsPerFrame, fastLoss)
			naive := scriptedAsyncEnv(t, nw, script, starts, frameLen, slotsPerFrame, naiveLoss)
			fast.world, naive.world = world, world
			delivered += resolveAllMatch(t, fast, naive, script)
			for u := range script {
				for _, g := range fast.frames[u] {
					if g.action.Mode != radio.Receive {
						continue
					}
					if mask := fast.maskFor(topology.NodeID(u), g); len(mask) > 1 {
						wideWords++
					}
					if g.action.Channel >= 64 {
						highChannels++
					}
				}
			}
		})
	}
	if wideWords == 0 || highChannels == 0 || delivered == 0 {
		t.Fatalf("wide scenarios: %d multi-word masks, %d listening frames on channels ≥ 64, %d deliveries; want all positive",
			wideWords, highChannels, delivered)
	}
	t.Logf("wide scenarios: %d multi-word masks, %d listening frames on channels ≥ 64, %d deliveries", wideWords, highChannels, delivered)
}

// twinLoss returns, with probability p, two identically seeded loss models
// (one per resolver under comparison); otherwise two nils.
func twinLoss(t *testing.T, r *rng.Source, p float64) (*LossModel, *LossModel) {
	t.Helper()
	if !r.Bernoulli(p) {
		return nil, nil
	}
	prob := 0.1 + r.Float64()*0.6
	lossSeed := r.Uint64()
	a, err := NewLossModel(prob, rng.New(lossSeed))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLossModel(prob, rng.New(lossSeed))
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// resolveAllMatch resolves every scripted frame in node-major order through
// both envs and requires identical deliveries; it returns their count.
func resolveAllMatch(t *testing.T, fast, naive *asyncEnv, script [][]radio.Action) int {
	t.Helper()
	total := 0
	for u := range script {
		uid := topology.NodeID(u)
		for f := range script[u] {
			got := resolveScripted(fast, uid, f)
			want := naive.resolveFrameNaive(uid, naive.frames[u][f])
			sameDeliveries(t, u, f, got, want)
			total += len(want)
		}
	}
	return total
}

// wideAsyncScript builds a geometric network of 70–160 nodes over a
// universe of 66–130 channels, so candidate rows span several NodeID words
// and spans reach past channel 63, plus per-node frame scripts (6–10
// frames) and start offsets.
func wideAsyncScript(t *testing.T, r *rng.Source) (*topology.Network, [][]radio.Action, []float64, float64, int) {
	t.Helper()
	n := 70 + r.IntN(91)
	nw, err := topology.GeometricConnected(n, 0.3, r, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignBernoulli(nw, 66+r.IntN(65), 0.12, r); err != nil {
		t.Fatal(err)
	}
	slotsPerFrame := r.IntN(3) + 1
	frames := 6 + r.IntN(5)
	frameLen := 1 + r.Float64()*3
	script := make([][]radio.Action, n)
	starts := make([]float64, n)
	for u := 0; u < n; u++ {
		avail := nw.Avail(topology.NodeID(u))
		script[u] = make([]radio.Action, frames)
		for f := range script[u] {
			c, err := avail.Pick(r)
			if err != nil {
				t.Fatal(err)
			}
			mode := radio.Receive
			switch r.IntN(4) {
			case 0:
				mode = radio.Quiet
			case 1, 2:
				mode = radio.Transmit
			}
			script[u][f] = radio.Action{Mode: mode, Channel: c}
		}
		starts[u] = r.Float64() * 2 * frameLen
	}
	return nw, script, starts, frameLen, slotsPerFrame
}

// scriptWorld returns a churning, moving world with primary users over nw
// whose epochs are about a frame and a half long, so a script's listening
// frames resolve against several epoch tables.
func scriptWorld(t *testing.T, r *rng.Source, nw *topology.Network, script [][]radio.Action, starts []float64, frameLen float64) *dynamics.World {
	t.Helper()
	epochLen := 1.5 * frameLen
	horizon := int((slices.Max(starts)+float64(len(script[0])+1)*frameLen)/epochLen) + 1
	world, err := dynamics.NewWorld(nw, dynamics.Spec{
		EpochLen: epochLen,
		Churn:    &dynamics.Churn{JoinFraction: 0.3, JoinWindow: 3, LeaveFraction: 0.2, LeaveWindow: 4},
		Mobility: &dynamics.Mobility{Speed: 0.05, Radius: 0.3, Pause: 1},
		Primary:  &dynamics.Primary{Events: 3, Duration: 2, Radius: 0.3},
	}, horizon, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	return world
}

// TestTxBucketsCoverOverlaps pins the transmit bucket table's superset
// property, on which collectSlots' mask AND rests: for every listening
// frame and every transmit frame on its channel that overlaps it for a
// positive length, the sender's bit is set in txWord over the listening
// frame's half-open bucket range (buckets).
// Clocks start at random offsets and drift as random walks at the maximum
// asynchronous drift, so frames run up to 1/(1−δ) nominal frames long and
// touch two or three buckets; 1–5 slots per frame; up to 130 nodes, so
// masks span several words. Frames enter the env through appendFrame, as
// in the engines. The test also requires overlaps found only in a frame's
// last bucket, so a probe that stops one bucket short fails it.
//
// The aligned trials run ideal clocks whose frames start on whole frame
// multiples from the origin, so every frame end falls exactly on a bucket
// boundary. There the filter must be exact: a sender's bit is set iff it
// has an overlapping transmit frame on the channel. A closed range
// [bucket(start), bucket(end)] on either side would also report the
// sender's next frame and fail.
func TestTxBucketsCoverOverlaps(t *testing.T) {
	root := rng.New(2323)
	lastOnly, exact := 0, 0
	for trial := 0; trial < 42; trial++ {
		r := root.Split()
		aligned := trial >= 30
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
		if aligned {
			// Dyadic slot lengths keep every boundary sum exact.
			frameLen = float64(slotsPerFrame) * []float64{0.25, 0.5, 1, 2}[r.IntN(4)]
		}
		timelines := make([]*clock.Timeline, n)
		for u := range timelines {
			start := r.Float64() * 8 * frameLen
			var drift clock.DriftProcess
			if aligned {
				start = float64(r.IntN(8)) * frameLen
			} else if drift, err = clock.NewRandomWalk(clock.MaxAsyncDrift, 0.05, r.Split()); err != nil {
				t.Fatal(err)
			}
			if timelines[u], err = clock.NewTimeline(start, frameLen, slotsPerFrame, drift); err != nil {
				t.Fatal(err)
			}
		}
		env := NewAsyncScratch().envFor(nw, nil, timelines, slotsPerFrame, nil)
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
				first, last := env.buckets(g.start, g.end)
				if aligned && first != last {
					t.Fatalf("trial %d: aligned frame [%v, %v) spans buckets %d..%d", trial, g.start, g.end, first, last)
				}
				for w := 0; w < n; w++ {
					if w == u {
						continue
					}
					overlap := false
					for _, fr := range env.frames[w] {
						if fr.action.Mode != radio.Transmit || fr.action.Channel != c || fr.start >= g.end || fr.end <= g.start {
							continue
						}
						overlap = true
						if last > first && env.txWord(c, w>>6, first, last-1)>>(w&63)&1 == 0 {
							lastOnly++
						}
					}
					set := env.txWord(c, w>>6, first, last)>>(w&63)&1 != 0
					switch {
					case overlap && !set:
						t.Fatalf("trial %d: listener %d frame [%v, %v) on channel %d misses sender %d's overlapping frame",
							trial, u, g.start, g.end, c, w)
					case aligned && set && !overlap:
						t.Fatalf("trial %d: aligned listener %d frame [%v, %v) on channel %d reports sender %d, which has no overlapping transmit frame",
							trial, u, g.start, g.end, c, w)
					case aligned && set:
						exact++
					}
				}
			}
		}
	}
	if lastOnly == 0 {
		t.Fatal("no overlap was visible only in a listening frame's last bucket; the probe's upper end went untested")
	}
	if exact == 0 {
		t.Fatal("no aligned overlap was found; the exact case went untested")
	}
	t.Logf("%d overlaps visible only in the last bucket, %d aligned overlaps", lastOnly, exact)
}

// TestFrameIndexMatchesScan pins frameFrom — the frame index appendFrame
// fills — to a linear scan: for every sender and every bucket b from well
// before its first frame to well past its last, the first frame starting
// in bucket b or later. Clocks drift as random walks at the maximum
// asynchronous drift from random starts, with 1–5 slots per frame; the
// probes cover the buckets of exact frame starts, every bucket boundary in
// between (buckets no frame starts in included), buckets before the first
// frame and past the last one. One scratch serves every trial, so the
// index must also shed a previous run's longer tables.
func TestFrameIndexMatchesScan(t *testing.T) {
	root := rng.New(7117)
	sc := NewAsyncScratch()
	for trial := 0; trial < 40; trial++ {
		r := root.Split()
		n := 1 + r.IntN(6)
		nw, err := topology.Clique(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := topology.AssignHomogeneous(nw, 2); err != nil {
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
			if timelines[u], err = clock.NewTimeline(r.Float64()*6*frameLen, frameLen, slotsPerFrame, drift); err != nil {
				t.Fatal(err)
			}
		}
		env := sc.envFor(nw, nil, timelines, slotsPerFrame, nil)
		frames := 1 + r.IntN(60)
		for u := 0; u < n; u++ {
			for f := 0; f < frames; f++ {
				env.appendFrame(u, radio.Action{Mode: radio.Transmit, Channel: 0})
			}
		}
		for w := 0; w < n; w++ {
			wf := env.frames[w]
			lastBucket := env.bucket(wf[len(wf)-1].start)
			for b := -2; b <= lastBucket+3; b++ {
				want := len(wf)
				for f, fr := range wf {
					if env.bucket(fr.start) >= b {
						want = f
						break
					}
				}
				if got := env.frameFrom(w, b); got != want {
					t.Fatalf("trial %d: sender %d bucket %d (frames start in buckets %d..%d): frameFrom %d, scan %d",
						trial, w, b, env.bucket(wf[0].start), lastBucket, got, want)
				}
			}
		}
	}
}

// TestResolveFrameCursorRobust pins the resolver's per-sender search state
// (the frame index) to the reference under call orders the engines never
// produce: every frame of a scenario resolved in shuffled order, some
// frames twice in a row, and one scratch env reused across scenarios of
// different n and frame counts, so the index, masks and bucket table a
// scenario leaves behind are longer than the next one's. Every delivery
// list must equal the reference's. Both envs resolve the same sequence
// with identically seeded loss models, so draw order is compared too.
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
		t.Fatal("no scenario followed a longer one; stale out-of-range index entries went untested")
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
