package core

import (
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// BenchmarkNeighborTableDeliver measures the delivery layer on its own:
// RecordIntersect into 100k reserved tables of about 15 neighbors each, in
// a fixed pseudo-random (listener, sender) order, the access pattern of a
// large run's deliver round. Every neighbor is discovered before the
// timer starts, so the timed deliveries are repeats — the steady state of
// a run — and one op is one delivery.
func BenchmarkNeighborTableDeliver(b *testing.B) {
	const (
		n      = 100_000
		degree = 15
		order  = 1 << 20
	)
	r := rng.New(24)
	avail := make([]channel.Set, n)
	for u := range avail {
		avail[u] = channel.NewSet(channel.ID(r.IntN(8)), channel.ID(r.IntN(8)), channel.ID(8+r.IntN(8)))
	}
	tables := make([]NeighborTable, n)
	nbrs := make([][degree]topology.NodeID, n)
	for u := range tables {
		tables[u].Reserve(degree)
		for k := range nbrs[u] {
			nbrs[u][k] = topology.NodeID((u + 1 + r.IntN(n-1)) % n)
		}
	}
	type delivery struct{ to, from topology.NodeID }
	deliveries := make([]delivery, order)
	for i := range deliveries {
		u := r.IntN(n)
		deliveries[i] = delivery{to: topology.NodeID(u), from: nbrs[u][r.IntN(degree)]}
	}
	for u := range tables {
		for _, v := range nbrs[u] {
			tables[u].RecordIntersect(v, avail[v], avail[u])
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := deliveries[i&(order-1)]
		tables[d.to].RecordIntersect(d.from, avail[d.from], avail[d.to])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/delivery")
}
