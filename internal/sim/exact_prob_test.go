package sim

// Exact-probability oracle for the synchronous engine. Algorithm 3
// (core.SyncUniform) makes every slot i.i.d., so over S slots each link's
// decode count is Binomial(S, p) with p from analytic.ExactLinkProb,
// whatever the correlation between links. Testing every link's count
// against that model is a one-sample test, not a comparison between
// engine paths, so a bug all paths share — a wrong span, a collision on
// the wrong channel, a loss draw applied twice — fails it too.

import (
	"fmt"
	"math"
	"testing"

	"m2hew/internal/analytic"
	"m2hew/internal/core"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// countingSync wraps a protocol and counts the messages it decodes per
// sender. Counting in the protocol rather than through an observer keeps
// every resolver path eligible.
type countingSync struct {
	SyncProtocol
	decodes []int
}

func (p *countingSync) Deliver(msg radio.Message) {
	p.decodes[msg.From]++
	p.SyncProtocol.Deliver(msg)
}

// binomialTwoSided returns the two-sided p-value of k successes in n
// Bernoulli(p) trials: twice the tail beyond k on k's side of the mean,
// capped at 1. The tail is summed outward from k with the pmf ratio
// recurrence, so only the terms that matter are computed.
func binomialTwoSided(k, n int, p float64) float64 {
	lgamma := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	term := math.Exp(lgamma(n) - lgamma(k) - lgamma(n-k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
	sum := term
	for i := k; term > sum*1e-17; {
		if float64(k) <= float64(n)*p {
			if i == 0 {
				break
			}
			term *= float64(i) / float64(n-i+1) * (1 - p) / p
			i--
		} else {
			if i == n {
				break
			}
			term *= float64(n-i) / float64(i+1) * p / (1 - p)
			i++
		}
		sum += term
	}
	return math.Min(1, 2*sum)
}

// TestBinomialTwoSided pins the test statistic on values computable by
// hand.
func TestBinomialTwoSided(t *testing.T) {
	for _, c := range []struct {
		k, n int
		p    float64
		want float64
	}{
		{0, 1, 0.5, 1},           // 2·½
		{0, 10, 0.5, 2.0 / 1024}, // 2·2⁻¹⁰
		{10, 10, 0.5, 2.0 / 1024},
		{1, 10, 0.5, 2 * 11.0 / 1024},
		{5, 10, 0.5, 1},
		{0, 3, 0.1, 2 * 0.729},
	} {
		if got := binomialTwoSided(c.k, c.n, c.p); math.Abs(got-math.Min(1, c.want)) > 1e-12 {
			t.Errorf("binomialTwoSided(%d, %d, %v) = %v, want %v", c.k, c.n, c.p, got, c.want)
		}
	}
}

// exactProbNetwork builds one of the oracle test's networks: a connected
// geometric graph (so radius-matched tilings exist) with a uniform-k
// assignment, optionally with dropped directions or capped spans, or with
// a block-overlap assignment instead.
func exactProbNetwork(t *testing.T, kind string, seed uint64, radius float64) *topology.Network {
	t.Helper()
	r := rng.New(seed)
	nw, err := topology.GeometricConnected(30, radius, r, 100)
	if err != nil {
		t.Fatal(err)
	}
	switch kind {
	case "block-overlap":
		err = topology.AssignBlockOverlap(nw, 2, 1)
	default:
		err = topology.AssignUniformK(nw, 6, 3, r)
	}
	if err != nil {
		t.Fatal(err)
	}
	switch kind {
	case "dropped":
		err = topology.DropRandomDirections(nw, 0.3, r)
	case "span-capped":
		err = topology.RestrictSpansRandomly(nw, 1, r)
	}
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestSyncDecodeCountsMatchExactProb runs Algorithm 3 for a fixed number
// of slots (RunToMaxSlots) on geometric, dropped-direction, span-capped and
// block-overlap networks, on every resolver path — the single tile
// loss-free and lossy, and the parallel path — and confirms each path
// from the run's internals. Every link's decode count must pass a two-sided binomial test
// against the exact per-slot probability at a Bonferroni-corrected
// family-wise α, and no listener may decode a non-candidate.
func TestSyncDecodeCountsMatchExactProb(t *testing.T) {
	const (
		slots    = 30000
		deltaEst = 10
		radius   = 0.35
		alpha    = 1e-3 // family-wise
	)
	paths := []struct {
		name  string
		loss  float64
		tiled bool
		slots func(Internals) int64
	}{
		{"single-tile", 0, false, func(in Internals) int64 { return in.KernelSlots }},
		{"single-tile-lossy", 0.25, false, func(in Internals) int64 { return in.KernelSlots }},
		{"multi-tile", 0, true, func(in Internals) int64 { return in.TiledSlots }},
	}
	type check struct {
		label string
		k     int
		p     float64
	}
	var checks []check
	for ni, kind := range []string{"geometric", "dropped", "span-capped", "block-overlap"} {
		nw := exactProbNetwork(t, kind, uint64(41+ni), radius)
		cands := nw.InboundCandidates()
		for pi, path := range paths {
			label := kind + "/" + path.name
			seed := uint64(1000*ni + pi)
			r := rng.New(seed)
			protos := make([]SyncProtocol, nw.N())
			counters := make([]*countingSync, nw.N())
			for u := range protos {
				p, err := core.NewSyncUniform(nw.Avail(topology.NodeID(u)), deltaEst, r.Split())
				if err != nil {
					t.Fatal(err)
				}
				counters[u] = &countingSync{SyncProtocol: p, decodes: make([]int, nw.N())}
				protos[u] = counters[u]
			}
			rec := &InternalsRecorder{}
			cfg := SyncConfig{
				Network: nw, Protocols: protos, MaxSlots: slots, RunToMaxSlots: true,
				Observer: rec,
			}
			if path.loss > 0 {
				var err error
				if cfg.Loss, err = NewLossModel(path.loss, rng.New(seed+1)); err != nil {
					t.Fatal(err)
				}
			}
			if path.tiled {
				tl, err := topology.TilingByRadius(nw, radius, 4)
				if err != nil {
					t.Fatal(err)
				}
				if tl.Tiles() < 2 {
					t.Fatalf("%s: radius tiling has %d tile", label, tl.Tiles())
				}
				cfg.Tiling = tl
			}
			if _, err := RunSync(cfg); err != nil {
				t.Fatal(err)
			}
			if got := path.slots(rec.Last); got != slots {
				t.Fatalf("%s: %d of %d slots on the intended path (internals %+v)", label, got, slots, rec.Last)
			}
			probs := analytic.ExactLinkProb(nw, deltaEst, path.loss)
			for u, row := range cands {
				decoded := 0
				for _, d := range counters[u].decodes {
					decoded += d
				}
				for k, cand := range row {
					decoded -= counters[u].decodes[cand.From]
					checks = append(checks, check{
						label: fmt.Sprintf("%s: link %d→%d", label, cand.From, u),
						k:     counters[u].decodes[cand.From],
						p:     probs[u][k],
					})
				}
				if decoded != 0 {
					t.Fatalf("%s: node %d decoded %d messages from non-candidates", label, u, decoded)
				}
			}
		}
	}
	perLink := alpha / float64(len(checks))
	for _, c := range checks {
		if pv := binomialTwoSided(c.k, slots, c.p); pv < perLink {
			t.Errorf("%s: %d decodes in %d slots, expected %.1f (p = %.3g, p-value %.2g < %.2g)",
				c.label, c.k, slots, c.p*slots, c.p, pv, perLink)
		}
	}
	t.Logf("%d links tested at per-link α = %.2g", len(checks), perLink)
}
