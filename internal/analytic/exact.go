package analytic

import (
	"m2hew/internal/core"
	"m2hew/internal/topology"
)

// ExactLinkProb returns the exact per-slot probability that each listener
// decodes each of its inbound candidates under Algorithm 3
// (core.SyncUniform) with degree estimate deltaEst and per-reception loss
// probability loss: probs[u][k] belongs to candidate k of
// nw.InboundCandidates()[u].
//
// Every slot is i.i.d.: node w transmits with probability
// t_w = min(½, |A(w)|/Δ_est) on a uniform channel of A(w) and otherwise
// listens on one. Listener u decodes v on channel c ∈ span(u,v) when u
// listens on c, v transmits on c and survives its loss draw, and no other
// candidate w of u with c ∈ span(u,w) transmits on c and survives:
//
//	Σ_{c∈span(u,v)} (1−p)·(t_v/|A(v)|)·((1−t_u)/|A(u)|)
//	    ·Π_{w∈cands(u), w≠v, c∈span(u,w)} (1 − (1−p)·t_w/|A(w)|)
//
// A transmitter whose span excludes c never reaches u, and an erased
// transmission does not collide. Each link's first-discovery slot is
// geometric with this parameter, and its decode count over S slots is
// Binomial(S, ·), however correlated different links are.
func ExactLinkProb(nw *topology.Network, deltaEst int, loss float64) [][]float64 {
	cands := nw.InboundCandidates()
	// hit[w]: probability that w transmits on one given channel of A(w)
	// and survives the loss draw.
	hit := make([]float64, nw.N())
	for w := range hit {
		if a := nw.Avail(topology.NodeID(w)).Size(); a > 0 {
			hit[w] = (1 - loss) * core.TransmitProbUniform(a, deltaEst) / float64(a)
		}
	}
	probs := make([][]float64, len(cands))
	for u, row := range cands {
		probs[u] = make([]float64, len(row))
		if len(row) == 0 {
			continue
		}
		avail := nw.Avail(topology.NodeID(u))
		listen := (1 - core.TransmitProbUniform(avail.Size(), deltaEst)) / float64(avail.Size())
		for _, c := range avail.IDs() {
			// clear: probability that no candidate reaching u on c
			// transmits there and survives.
			clear := 1.0
			for _, cand := range row {
				if cand.Span.Contains(c) {
					clear *= 1 - hit[cand.From]
				}
			}
			for k, cand := range row {
				if cand.Span.Contains(c) {
					h := hit[cand.From]
					probs[u][k] += listen * h * clear / (1 - h)
				}
			}
		}
	}
	return probs
}
