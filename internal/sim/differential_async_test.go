package sim

// Differential testing of the asynchronous engine against a brute-force
// interval resolver: for each listening frame the reference scans every
// transmission slot of every node in the whole run (no binary search, no
// pointer advancement) and applies the containment and overlap rules
// verbatim. Divergence pinpoints indexing or search-window bugs in the
// engine's resolver.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/clock"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// asyncRefDelivery is one reception per the reference resolver.
type asyncRefDelivery struct {
	from topology.NodeID
	at   float64
}

// listenerFrame names one listening frame: node to's frame frame.
type listenerFrame struct {
	to    topology.NodeID
	frame int
}

// referenceResolveAsync recomputes all receptions of a scripted async run,
// per listening frame, each frame's deliveries ascending by sender.
func referenceResolveAsync(
	nw *topology.Network,
	script [][]radio.Action,
	timelines []*clock.Timeline,
	slotsPerFrame int,
) map[listenerFrame][]asyncRefDelivery {
	type interval struct {
		start, end float64
		from       topology.NodeID
		ch         channel.ID
	}
	// Enumerate every transmission slot in the run.
	var txs []interval
	for u := 0; u < nw.N(); u++ {
		for f, a := range script[u] {
			if a.Mode != radio.Transmit {
				continue
			}
			for s := 0; s < slotsPerFrame; s++ {
				ss, se := timelines[u].FrameSlotInterval(f, s)
				txs = append(txs, interval{start: ss, end: se, from: topology.NodeID(u), ch: a.Channel})
			}
		}
	}
	out := make(map[listenerFrame][]asyncRefDelivery)
	for u := 0; u < nw.N(); u++ {
		uid := topology.NodeID(u)
		for f, a := range script[u] {
			if a.Mode != radio.Receive {
				continue
			}
			gs, ge := timelines[u].FrameInterval(f)
			// Transmissions that arrive at u on its channel and overlap the
			// frame.
			var arriving []interval
			for _, tx := range txs {
				if tx.from == uid || tx.ch != a.Channel {
					continue
				}
				if !nw.Reaches(tx.from, uid) || !nw.Span(uid, tx.from).Contains(a.Channel) {
					continue
				}
				if tx.end <= gs || tx.start >= ge {
					continue
				}
				arriving = append(arriving, tx)
			}
			// Earliest clear contained slot per sender.
			best := make(map[topology.NodeID]float64)
			for i, cand := range arriving {
				if cand.start < gs || cand.end > ge {
					continue
				}
				clear := true
				for j, other := range arriving {
					if i == j || other.from == cand.from {
						continue
					}
					if other.start < cand.end && cand.start < other.end {
						clear = false
						break
					}
				}
				if !clear {
					continue
				}
				if prev, ok := best[cand.from]; !ok || cand.end < prev {
					best[cand.from] = cand.end
				}
			}
			var ds []asyncRefDelivery
			for from, at := range best {
				ds = append(ds, asyncRefDelivery{from: from, at: at})
			}
			sort.Slice(ds, func(i, j int) bool { return ds[i].from < ds[j].from })
			if len(ds) > 0 {
				out[listenerFrame{to: uid, frame: f}] = ds
			}
		}
	}
	return out
}

func TestAsyncEngineMatchesReference(t *testing.T) {
	root := rng.New(424242)
	for trial := 0; trial < 60; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("scenario%03d", trial), func(t *testing.T) {
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
			frames := r.IntN(20) + 4
			frameLen := 1 + r.Float64()*4

			// Per-node scripts, drifts, starts — and private timelines for
			// the reference (the engine builds its own; NewTimeline is
			// deterministic per drift process, so use per-node Constant
			// drift to keep both sides identical).
			script := make([][]radio.Action, n)
			nodes := make([]AsyncNode, n)
			timelines := make([]*clock.Timeline, n)
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
				drift := clock.Constant(r.UniformFloat64(-0.14, 0.14))
				start := r.Float64() * 3 * frameLen
				nodes[u] = AsyncNode{
					Protocol: &scriptAsync{actions: script[u]},
					Start:    start,
					Drift:    drift,
				}
				tl, err := clock.NewTimeline(start, frameLen, slotsPerFrame, drift)
				if err != nil {
					t.Fatal(err)
				}
				timelines[u] = tl
			}

			// The engine's deliveries, per listening frame: a frame's
			// deliveries go out just before its EventFrameResolve.
			got := make(map[listenerFrame][]asyncRefDelivery)
			var pending []asyncRefDelivery
			_, err = RunAsync(AsyncConfig{
				Network:        nw,
				Nodes:          nodes,
				FrameLen:       frameLen,
				SlotsPerFrame:  slotsPerFrame,
				MaxFrames:      frames,
				RunToMaxFrames: true,
				Observer: ObserverFunc(func(e Event) {
					switch e.Kind {
					case EventDeliver:
						pending = append(pending, asyncRefDelivery{from: e.From, at: e.Time})
					case EventFrameResolve:
						if len(pending) != e.Delivered {
							t.Fatalf("node %d frame %d: %d deliveries, EventFrameResolve says %d", e.Node, e.Slot, len(pending), e.Delivered)
						}
						if len(pending) > 0 {
							got[listenerFrame{to: e.Node, frame: e.Slot}] = pending
							pending = nil
						}
					}
				}),
			})
			if err != nil {
				t.Fatal(err)
			}
			want := referenceResolveAsync(nw, script, timelines, slotsPerFrame)
			if len(got) != len(want) {
				t.Fatalf("engine delivered in %d listening frames, reference %d\nengine: %v\nreference: %v",
					len(got), len(want), got, want)
			}
			for lf, w := range want {
				g := got[lf]
				if len(g) != len(w) {
					t.Fatalf("node %d frame %d: engine %v, reference %v", lf.to, lf.frame, g, w)
				}
				for i := range w {
					if g[i].from != w[i].from || math.Abs(g[i].at-w[i].at) > 1e-9 {
						t.Fatalf("node %d frame %d delivery %d: engine %+v, reference %+v", lf.to, lf.frame, i, g[i], w[i])
					}
				}
			}
		})
	}
}
