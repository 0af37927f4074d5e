package core

import (
	"testing"

	"m2hew/internal/channel"
)

// TestNeighborTableSteadyStateAllocs pins the table's hot path: once
// a neighbor is known and its span is settled, re-recording it — the case
// every redundant delivery hits — must not allocate at all.
func TestNeighborTableSteadyStateAllocs(t *testing.T) {
	var tbl NeighborTable
	a := channel.NewSet(1, 2, 5, 70)
	b := channel.NewSet(2, 5, 70, 80)
	tbl.RecordIntersect(3, a, b) // discovery: allocates the slot
	if allocs := testing.AllocsPerRun(100, func() {
		tbl.RecordIntersect(3, a, b)
	}); allocs != 0 {
		t.Fatalf("re-recording a settled neighbor allocates %.0f/op, want 0", allocs)
	}
	sub := channel.NewSet(2, 5)
	if allocs := testing.AllocsPerRun(100, func() {
		tbl.Record(3, sub)
	}); allocs != 0 {
		t.Fatalf("subset re-record allocates %.0f/op, want 0", allocs)
	}
	// Growth still works after the steady-state loop.
	tbl.RecordIntersect(900, a, b)
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tbl.Len())
	}
}
