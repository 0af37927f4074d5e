package analytic

import (
	"math"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/core"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// enumeratedLinkProb is ExactLinkProb's reference: it enumerates every
// joint action of a tiny network (each node transmits or listens on each
// channel of A(w)) and, per link (v,u), sums the probability of the
// actions in which u listens on a channel c, v transmits on c over a
// discoverable link whose span holds c and survives its loss draw, and
// every other such transmitter is erased.
func enumeratedLinkProb(nw *topology.Network, deltaEst int, loss float64) map[topology.Link]float64 {
	n := nw.N()
	reaches := make(map[topology.Link]channel.Set)
	for _, l := range nw.DiscoverableLinks() {
		reaches[l] = nw.Span(l.From, l.To)
	}
	type action struct {
		tx bool
		c  channel.ID
		p  float64
	}
	choices := make([][]action, n)
	for w := 0; w < n; w++ {
		avail := nw.Avail(topology.NodeID(w))
		t := core.TransmitProbUniform(avail.Size(), deltaEst)
		for _, c := range avail.IDs() {
			a := float64(avail.Size())
			choices[w] = append(choices[w], action{true, c, t / a}, action{false, c, (1 - t) / a})
		}
	}
	out := make(map[topology.Link]float64)
	joint := make([]action, n)
	var walk func(w int, p float64)
	walk = func(w int, p float64) {
		if w < n {
			for _, a := range choices[w] {
				joint[w] = a
				walk(w+1, p*a.p)
			}
			return
		}
		for u := 0; u < n; u++ {
			if joint[u].tx {
				continue
			}
			c := joint[u].c
			var senders []topology.NodeID
			for v := 0; v < n; v++ {
				l := topology.Link{From: topology.NodeID(v), To: topology.NodeID(u)}
				if span, ok := reaches[l]; ok && joint[v].tx && joint[v].c == c && span.Contains(c) {
					senders = append(senders, l.From)
				}
			}
			for _, v := range senders {
				out[topology.Link{From: v, To: topology.NodeID(u)}] += p * (1 - loss) * math.Pow(loss, float64(len(senders)-1))
			}
		}
	}
	walk(0, 1)
	return out
}

// TestExactLinkProbMatchesEnumeration pins the closed form to full
// enumeration on tiny random networks with dropped directions, capped
// spans and loss.
func TestExactLinkProbMatchesEnumeration(t *testing.T) {
	root := rng.New(3)
	for trial := 0; trial < 60; trial++ {
		r := root.Split()
		nw, err := topology.ErdosRenyi(r.IntN(3)+2, 0.8, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := topology.AssignBernoulli(nw, 3, 0.5, r); err != nil {
			t.Fatal(err)
		}
		if r.Bernoulli(0.5) {
			if err := topology.DropRandomDirections(nw, 0.3, r); err != nil {
				t.Fatal(err)
			}
		}
		if r.Bernoulli(0.5) {
			if err := topology.RestrictSpansRandomly(nw, 1, r); err != nil {
				t.Fatal(err)
			}
		}
		deltaEst := r.IntN(6) + 1
		loss := []float64{0, 0.3}[r.IntN(2)]
		want := enumeratedLinkProb(nw, deltaEst, loss)
		got := ExactLinkProb(nw, deltaEst, loss)
		links := 0
		for u, row := range nw.InboundCandidates() {
			for k, cand := range row {
				l := topology.Link{From: cand.From, To: topology.NodeID(u)}
				if math.Abs(got[u][k]-want[l]) > 1e-12 {
					t.Fatalf("trial %d: link %v: closed form %v, enumeration %v", trial, l, got[u][k], want[l])
				}
				links++
			}
		}
		if links != len(want) {
			t.Fatalf("trial %d: %d candidate links, enumeration decodes on %d", trial, links, len(want))
		}
	}
}
