package sim

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// randomCands returns an n-listener candidate table ascending by From,
// each listener holding every other node with probability density, with
// spans drawn from universe channels (which may exceed the compiled
// channel count).
func randomCands(r *rng.Source, n, universe int, density float64) [][]topology.Candidate {
	cands := make([][]topology.Candidate, n)
	for u := range cands {
		for v := 0; v < n; v++ {
			if v == u || !r.Bernoulli(density) {
				continue
			}
			var span channel.Set
			for c := 0; c < universe; c++ {
				if r.Bernoulli(0.3) {
					span.Add(channel.ID(c))
				}
			}
			if !span.IsEmpty() {
				cands[u] = append(cands[u], topology.Candidate{From: topology.NodeID(v), Span: span})
			}
		}
	}
	return cands
}

// checkCandMasks pins every row of m to cands: walked entry by entry and
// bit by bit, the row of (u, c) must list exactly u's candidates whose span
// holds c, in candidate order, over strictly ascending non-empty words; a
// channel past the table's count has no row; and the table holds at most
// one entry per candidate-channel pair.
func checkCandMasks(t *testing.T, label string, m *candMasks, cands [][]topology.Candidate, channels int) {
	t.Helper()
	pairs := 0
	for u, list := range cands {
		uid := topology.NodeID(u)
		for c := 0; c < channels; c++ {
			var want, got []topology.NodeID
			for _, cand := range list {
				if cand.Span.Contains(channel.ID(c)) {
					want = append(want, cand.From)
				}
			}
			pairs += len(want)
			prev := int32(-1)
			for _, e := range m.row(uid, channel.ID(c)) {
				if e.w <= prev || e.bits == 0 {
					t.Fatalf("%s: listener %d channel %d: entry (word %d, bits %#x) after word %d", label, u, c, e.w, e.bits, prev)
				}
				prev = e.w
				for b := e.bits; b != 0; b &= b - 1 {
					got = append(got, topology.NodeID(int(e.w)<<6|bits.TrailingZeros64(b)))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: listener %d channel %d: row lists %v, candidates %v", label, u, c, got, want)
			}
		}
		if row := m.row(uid, channel.ID(channels)); row != nil {
			t.Fatalf("%s: listener %d has a row past the %d channels", label, u, channels)
		}
	}
	if len(m.ents) > pairs {
		t.Fatalf("%s: %d entries for %d candidate-channel pairs", label, len(m.ents), pairs)
	}
}

// sameCandMasks reports whether two tables compiled identically.
func sameCandMasks(a, b *candMasks) bool {
	return a.channels == b.channels && slices.Equal(a.off, b.off) && slices.Equal(a.ents, b.ents)
}

// TestCandMasksMatchCandidates compiles random candidate tables — spans on
// channels past 64 and past the compiled count, empty rows, no listeners —
// and pins each table's rows to its candidates (checkCandMasks). The same
// tables recompiled into one reused table must equal their fresh compiles,
// and, once that table has grown to the largest, recompiling allocates
// nothing.
func TestCandMasksMatchCandidates(t *testing.T) {
	r := rng.New(2027)
	shapes := []struct {
		n, universe, channels int
		density               float64
	}{
		{20, 3, 3, 0.3},
		{150, 6, 6, 0.2},    // several NodeID words
		{9, 4, 2, 0.5},      // spans past the channel count
		{130, 80, 80, 0.1},  // spans on channels ≥ 64
		{70, 140, 130, 0.2}, // three span words, some channels past the count
		{40, 3, 3, 0},       // every row empty
		{0, 3, 3, 0},        // no listeners
		{200, 70, 66, 0.3},
	}
	tables := make([][][]topology.Candidate, len(shapes))
	var reused candMasks
	for i, sh := range shapes {
		label := fmt.Sprintf("table %d (n=%d, %d channels)", i, sh.n, sh.channels)
		tables[i] = randomCands(r, sh.n, sh.universe, sh.density)
		var fresh candMasks
		fresh.compile(tables[i], sh.channels)
		checkCandMasks(t, label, &fresh, tables[i], sh.channels)
		reused.compile(tables[i], sh.channels)
		if !sameCandMasks(&reused, &fresh) {
			t.Fatalf("%s: recompiled table differs from a fresh compile", label)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		for i, cands := range tables {
			reused.compile(cands, shapes[i].channels)
		}
	})
	if allocs != 0 {
		t.Fatalf("recompiles into grown storage allocated %.1f objects per run, want 0", allocs)
	}
}

// scaleTestNetwork builds a 100k-node scale network: a streamed geometric
// graph of mean degree about 15 with uniform 4-of-8 channels.
func scaleTestNetwork(b *testing.B) *topology.Network {
	b.Helper()
	nw, err := topology.GeometricCSR(100_000, 0.007, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	if err := topology.AssignUniformK(nw, 8, 4, rng.New(2)); err != nil {
		b.Fatal(err)
	}
	return nw
}

// BenchmarkCandMasksCompile measures the cold candidate-mask build of a
// scale network, built outside the timer.
func BenchmarkCandMasksCompile(b *testing.B) {
	cands := scaleTestNetwork(b).InboundCandidates()
	b.Run("n100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var m candMasks
			m.compile(cands, 8)
		}
	})
}

// BenchmarkNetTablesLoad measures the cold derived-table build on the
// scale network, built outside the timer: the transient candidate table,
// the shared message sets, the target index and the candidate masks. It
// reports what the cache keeps (TableBytes) as table_MB.
func BenchmarkNetTablesLoad(b *testing.B) {
	nw := scaleTestNetwork(b)
	b.Run("n100k", func(b *testing.B) {
		b.ReportAllocs()
		var tables netTables
		for i := 0; i < b.N; i++ {
			tables = netTables{}
			tables.load(nw)
		}
		b.ReportMetric(float64(tables.TableBytes())/1e6, "table_MB")
	})
}

// TestScratchRetainsOnlyCompiledTables pins what a loaded scratch keeps
// of the network tables: the live heap a load adds, after a GC, must come
// to 0.8–1.25× the TableBytes it accounts (message sets, target index,
// candidate masks), so no transient table — the inbound-candidate table
// the masks and the index are built from — outlives the load.
func TestScratchRetainsOnlyCompiledTables(t *testing.T) {
	r := rng.New(5)
	nw, err := topology.GeometricConnectedCSR(20_000, 0.0155, r, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignUniformK(nw, 8, 4, r); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sc := NewSyncScratch()
	sc.load(nw)
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	tables := sc.TableBytes()
	runtime.KeepAlive(sc)
	ratio := float64(grew) / float64(tables)
	t.Logf("live heap grew %d B for %d B of tables (%.2f×)", grew, tables, ratio)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("a loaded scratch grew the live heap by %.2f× its TableBytes (%d of %d B); want 0.8–1.25×", ratio, grew, tables)
	}
}

// reserveProbe is a quiet sync and async protocol that records the
// neighbor-reserve hint the engines hand it.
type reserveProbe struct{ hint int }

func (p *reserveProbe) Step(int) radio.Action         { return radio.Action{Mode: radio.Quiet} }
func (p *reserveProbe) NextFrame(int) radio.Action    { return radio.Action{Mode: radio.Quiet} }
func (p *reserveProbe) Deliver(radio.Message)         {}
func (p *reserveProbe) ReserveNeighbors(expected int) { p.hint = expected }

// TestEnginesReserveInboundCandidateCounts pins the hint both engines hand
// a NeighborReserver, read off the coverage target index, to the node's
// inbound candidate count: on a network with dropped directions and a
// last node whose spans are all emptied, so it has no index row.
func TestEnginesReserveInboundCandidateCounts(t *testing.T) {
	r := rng.New(31)
	nw, err := topology.GeometricConnected(60, 0.3, r, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignUniformK(nw, 6, 3, r); err != nil {
		t.Fatal(err)
	}
	if err := topology.DropRandomDirections(nw, 0.4, r); err != nil {
		t.Fatal(err)
	}
	last := topology.NodeID(nw.N() - 1)
	for _, v := range nw.Neighbors(last) {
		if err := nw.RestrictSpan(last, v, channel.Set{}); err != nil {
			t.Fatal(err)
		}
	}
	cands := nw.InboundCandidates()
	if len(cands[last]) != 0 {
		t.Fatal("the last node kept candidates")
	}
	check := func(engine string, probes []*reserveProbe) {
		t.Helper()
		for u, p := range probes {
			if p.hint != len(cands[u]) {
				t.Fatalf("%s: node %d reserved %d, want its %d inbound candidates", engine, u, p.hint, len(cands[u]))
			}
		}
	}
	probes := func() []*reserveProbe {
		ps := make([]*reserveProbe, nw.N())
		for u := range ps {
			ps[u] = &reserveProbe{hint: -1}
		}
		return ps
	}

	syncProbes := probes()
	protos := make([]SyncProtocol, nw.N())
	for u, p := range syncProbes {
		protos[u] = p
	}
	if _, err := RunSync(SyncConfig{Network: nw, Protocols: protos, MaxSlots: 1}); err != nil {
		t.Fatal(err)
	}
	check("RunSync", syncProbes)

	asyncProbes := probes()
	nodes := make([]AsyncNode, nw.N())
	for u, p := range asyncProbes {
		nodes[u] = AsyncNode{Protocol: p}
	}
	if _, err := RunAsync(AsyncConfig{Network: nw, Nodes: nodes, FrameLen: 3, MaxFrames: 1}); err != nil {
		t.Fatal(err)
	}
	check("RunAsync", asyncProbes)
}
