package dynamics

import (
	"slices"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

func testNet(t testing.TB, seed uint64, n int) *topology.Network {
	t.Helper()
	r := rng.New(seed)
	nw, err := topology.GeometricConnected(n, 0.5, r, 100)
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	if err := topology.AssignBernoulli(nw, 6, 0.7, r); err != nil {
		t.Fatalf("channels: %v", err)
	}
	return nw
}

// candLinks returns the directed links of a candidate table — (v, u) for
// every v in cands[u] — ascending by (From, To).
func candLinks(cands [][]topology.Candidate) []topology.Link {
	var links []topology.Link
	for u, row := range cands {
		for _, c := range row {
			links = append(links, topology.Link{From: c.From, To: topology.NodeID(u)})
		}
	}
	slices.SortFunc(links, topology.CompareLinks)
	return links
}

func TestSpecValidation(t *testing.T) {
	nw := testNet(t, 1, 8)
	bad := map[string]Spec{
		"zero epoch":       {},
		"negative epoch":   {EpochLen: -1},
		"join frac":        {EpochLen: 1, Churn: &Churn{JoinFraction: 1.5}},
		"leave frac":       {EpochLen: 1, Churn: &Churn{LeaveFraction: -0.1}},
		"join window":      {EpochLen: 1, Churn: &Churn{JoinFraction: 0.5}},
		"leave window":     {EpochLen: 1, Churn: &Churn{LeaveFraction: 0.5}},
		"mobility speed":   {EpochLen: 1, Mobility: &Mobility{Radius: 0.3}},
		"mobility radius":  {EpochLen: 1, Mobility: &Mobility{Speed: 0.1}},
		"mobility pause":   {EpochLen: 1, Mobility: &Mobility{Speed: 0.1, Radius: 0.3, Pause: -1}},
		"primary events":   {EpochLen: 1, Primary: &Primary{Duration: 1}},
		"primary duration": {EpochLen: 1, Primary: &Primary{Events: 1}},
		"primary radius":   {EpochLen: 1, Primary: &Primary{Events: 1, Duration: 1, Radius: -0.1}},
	}
	for name, spec := range bad {
		if _, err := NewWorld(nw, spec, 10, rng.New(2)); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
	if _, err := NewWorld(nil, Spec{EpochLen: 1}, 10, rng.New(2)); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := NewWorld(nw, Spec{EpochLen: 1}, 0, rng.New(2)); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := NewWorld(nw, Spec{EpochLen: 1}, 10, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestEpochMapping(t *testing.T) {
	nw := testNet(t, 1, 8)
	w, err := NewWorld(nw, Spec{EpochLen: 50}, 10, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.EpochSlots(); err == nil {
		// 50 is whole, so EpochSlots must succeed.
		if s, _ := w.EpochSlots(); s != 50 {
			t.Fatalf("EpochSlots = %d, want 50", s)
		}
	} else {
		t.Fatalf("EpochSlots: %v", err)
	}
	for _, tc := range []struct {
		t    float64
		want int
	}{{-1, 0}, {0, 0}, {49.9, 0}, {50, 1}, {260, 5}, {1e9, 9}} {
		if got := w.EpochOf(tc.t); got != tc.want {
			t.Errorf("EpochOf(%v) = %d, want %d", tc.t, got, tc.want)
		}
	}
	frac, err := NewWorld(nw, Spec{EpochLen: 2.5}, 10, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := frac.EpochSlots(); err == nil {
		t.Error("fractional EpochSlots accepted")
	}
	// At clamps out-of-range queries.
	if w.At(-5).Index != 0 || w.At(99).Index != 9 {
		t.Error("At does not clamp to [0, horizon)")
	}
}

func TestStaticWorldMatchesBase(t *testing.T) {
	nw := testNet(t, 2, 10)
	w, err := NewWorld(nw, Spec{EpochLen: 100}, 8, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	base := nw.InboundCandidates()
	links := nw.DiscoverableLinks()
	for e := 0; e < 8; e++ {
		ep := w.At(e)
		if !ep.Quiescent {
			t.Fatalf("epoch %d of a static world not quiescent", e)
		}
		if len(ep.Joined)+len(ep.Left)+len(ep.Losses) != 0 {
			t.Fatalf("epoch %d of a static world has change events", e)
		}
		if got := candLinks(ep.Cands); !slices.Equal(got, links) {
			t.Fatalf("epoch %d: links %v, want %v", e, got, links)
		}
		for u := range base {
			if len(ep.Cands[u]) != len(base[u]) {
				t.Fatalf("epoch %d node %d: %d candidates, want %d", e, u, len(ep.Cands[u]), len(base[u]))
			}
		}
	}
	// Unchanged epochs share tables with their predecessor.
	if &w.At(1).Cands[0] != &w.At(5).Cands[0] {
		t.Error("quiet epochs do not share candidate tables")
	}
}

func TestChurnActivity(t *testing.T) {
	nw := testNet(t, 3, 20)
	const horizon = 30
	w, err := NewWorld(nw, Spec{
		EpochLen: 10,
		Churn:    &Churn{JoinFraction: 0.6, JoinWindow: 10, LeaveFraction: 0.5, LeaveWindow: 12},
	}, horizon, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	ep0 := w.At(0)
	if len(ep0.Joined)+len(ep0.Left) != 0 {
		t.Fatal("epoch 0 carries flip events; initial presence is state, not an event")
	}
	// Replaying the flip lists from epoch 0's activity must reproduce each
	// epoch's Active set, and flips must be consistent: a node joins at
	// most once, leaves at most once, and leaves only after joining.
	active := make([]bool, nw.N())
	copy(active, ep0.Active)
	joined := make(map[topology.NodeID]bool)
	left := make(map[topology.NodeID]bool)
	anyChurn := false
	for e := 1; e < horizon; e++ {
		ep := w.At(e)
		for _, u := range ep.Joined {
			if active[u] || joined[u] {
				t.Fatalf("epoch %d: node %d joins twice", e, u)
			}
			active[u], joined[u], anyChurn = true, true, true
		}
		for _, u := range ep.Left {
			if !active[u] || left[u] {
				t.Fatalf("epoch %d: node %d leaves while inactive", e, u)
			}
			active[u], left[u], anyChurn = false, true, true
		}
		for u := range active {
			if active[u] != ep.Active[u] {
				t.Fatalf("epoch %d node %d: flip replay says active=%v, snapshot says %v", e, u, active[u], ep.Active[u])
			}
		}
		// Inactive nodes are on no link of the candidate rows.
		for _, l := range candLinks(ep.Cands) {
			if !ep.Active[l.From] || !ep.Active[l.To] {
				t.Fatalf("epoch %d: link %v has inactive endpoint", e, l)
			}
		}
	}
	if !anyChurn {
		t.Fatal("churn schedule produced no flips; test fixture too weak")
	}
	if !w.At(horizon - 1).Quiescent {
		t.Fatal("final epoch of a churn-only world not quiescent")
	}
}

func TestPrimaryBlocking(t *testing.T) {
	nw := testNet(t, 6, 12)
	const horizon = 20
	// Radius 2 covers the whole unit square: every active primary blocks
	// its channel at every node.
	w, err := NewWorld(nw, Spec{
		EpochLen: 10,
		Primary:  &Primary{Events: 1, Duration: 4, Radius: 2},
	}, horizon, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	var (
		lossEpoch = -1
		lostCh    channel.ID
	)
	for e := 0; e < horizon; e++ {
		ep := w.At(e)
		if len(ep.Losses) > 0 {
			lossEpoch, lostCh = e, ep.Losses[0].Channel
			// Losses are ascending by node then channel.
			for i := 1; i < len(ep.Losses); i++ {
				a, b := ep.Losses[i-1], ep.Losses[i]
				if a.Node > b.Node || (a.Node == b.Node && a.Channel >= b.Channel) {
					t.Fatalf("epoch %d: losses out of order at %d", e, i)
				}
			}
			break
		}
	}
	if lossEpoch < 0 {
		t.Fatal("primary event produced no channel losses")
	}
	// While blocked, no span anywhere contains the lost channel; after the
	// primary leaves, the base spans return.
	for e := lossEpoch; e < lossEpoch+4 && e < horizon; e++ {
		ep := w.At(e)
		for u := range ep.Cands {
			for _, cand := range ep.Cands[u] {
				if cand.Span.Contains(lostCh) {
					t.Fatalf("epoch %d: span %d->%d still contains blocked channel %d", e, cand.From, u, lostCh)
				}
			}
		}
	}
	if after := lossEpoch + 4; after < horizon {
		ep := w.At(after)
		found := false
		for u := range ep.Cands {
			for _, cand := range ep.Cands[u] {
				if cand.Span.Contains(lostCh) {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("channel %d did not return after the primary left", lostCh)
		}
		if len(ep.Losses) != 0 {
			t.Fatal("channel return reported as a loss event")
		}
	}
}

func TestMobilityRederivation(t *testing.T) {
	nw := testNet(t, 8, 16)
	const horizon = 12
	w, err := NewWorld(nw, Spec{
		EpochLen: 25,
		Mobility: &Mobility{Speed: 0.08, Radius: 0.5, Pause: 1},
	}, horizon, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	var prev *Epoch
	for e := 0; e < horizon; e++ {
		ep := w.At(e)
		if ep.Quiescent {
			t.Fatalf("epoch %d quiescent while mobility is active", e)
		}
		// Candidate rows ascending by From.
		for u := range ep.Cands {
			for i := 1; i < len(ep.Cands[u]); i++ {
				if ep.Cands[u][i-1].From >= ep.Cands[u][i].From {
					t.Fatalf("epoch %d node %d: candidates out of order", e, u)
				}
			}
			// Spans stay inside the endpoints' static availability.
			for _, cand := range ep.Cands[u] {
				inter := nw.Avail(topology.NodeID(u)).Intersect(nw.Avail(cand.From))
				if !cand.Span.Minus(inter).IsEmpty() {
					t.Fatalf("epoch %d: span %d->%d exceeds availability intersection", e, cand.From, u)
				}
			}
		}
		if prev != nil && !slices.Equal(candLinks(ep.Cands), candLinks(prev.Cands)) {
			changed = true
		}
		prev = ep
	}
	if !changed {
		t.Fatal("mobility never changed the link set; fixture too slow or radius too large")
	}
}

func TestWorldDeterminism(t *testing.T) {
	nw := testNet(t, 10, 14)
	spec := Spec{
		EpochLen: 20,
		Churn:    &Churn{JoinFraction: 0.4, JoinWindow: 8, LeaveFraction: 0.3, LeaveWindow: 10},
		Mobility: &Mobility{Speed: 0.05, Radius: 0.5, Pause: 1},
		Primary:  &Primary{Events: 3, Duration: 4, Radius: 0.4},
	}
	const horizon = 16
	a, err := NewWorld(nw, spec, horizon, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorld(nw, spec, horizon, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < horizon; e++ {
		ea, eb := a.At(e), b.At(e)
		if la, lb := candLinks(ea.Cands), candLinks(eb.Cands); !slices.Equal(la, lb) {
			t.Fatalf("epoch %d: links %v vs %v", e, la, lb)
		}
		for u := range ea.Cands {
			if len(ea.Cands[u]) != len(eb.Cands[u]) {
				t.Fatalf("epoch %d node %d: candidate counts differ", e, u)
			}
			for i := range ea.Cands[u] {
				ca, cb := ea.Cands[u][i], eb.Cands[u][i]
				if ca.From != cb.From || !ca.Span.Minus(cb.Span).IsEmpty() || !cb.Span.Minus(ca.Span).IsEmpty() {
					t.Fatalf("epoch %d node %d candidate %d differs", e, u, i)
				}
			}
		}
	}
}

// BenchmarkEpochRebuild measures the per-epoch cost of the mobility path —
// position sampling plus the grid-bucket edge re-derivation — the price a
// dynamic run pays at every epoch boundary.
func BenchmarkEpochRebuild(b *testing.B) {
	nw := testNet(b, 11, 100)
	spec := Spec{
		EpochLen: 25,
		Mobility: &Mobility{Speed: 0.05, Radius: 0.25, Pause: 1},
	}
	const horizon = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := NewWorld(nw, spec, horizon, rng.New(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		w.At(horizon - 1) // builds all epochs sequentially
	}
}
