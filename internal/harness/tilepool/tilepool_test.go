package tilepool

import (
	"sync/atomic"
	"testing"
)

// TestRunCoversEveryIndexOnce pins the core contract across worker counts
// and round sizes, including n smaller than the worker count and repeated
// rounds on one pool.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			counts := make([]atomic.Int32, n)
			p.Run(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
		p.Close()
		p.Close() // idempotent
	}
}

// TestRunBarrierPublishesWrites pins the happens-before edge the parallel
// sync path's rounds rely on: plain (non-atomic) writes from one round are
// visible to the next round's workers and to the caller. Run under -race
// this is the round-barrier stress test.
func TestRunBarrierPublishesWrites(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 64
	a := make([]int, n)
	b := make([]int, n)
	for round := 0; round < 200; round++ {
		p.Run(n, func(i int) { a[i] = round + i })
		// Phase two reads every phase-one slot a worker may not have
		// written itself — exactly how the resolve round reads the
		// transmitter masks the decide round set.
		p.Run(n, func(i int) {
			sum := 0
			for j := i; j < i+8; j++ {
				sum += a[j%n]
			}
			b[i] = sum
		})
		for i := 0; i < n; i++ {
			sum := 0
			for j := i; j < i+8; j++ {
				sum += round + j%n
			}
			if b[i] != sum {
				t.Fatalf("round %d: b[%d] = %d, want %d", round, i, b[i], sum)
			}
		}
	}
}

// TestDefaultWorkers pins the GOMAXPROCS default and the caller-inclusive
// count.
func TestDefaultWorkers(t *testing.T) {
	p := New(0)
	defer p.Close()
	if p.Workers() < 1 {
		t.Fatalf("Workers() = %d", p.Workers())
	}
	p2 := New(5)
	defer p2.Close()
	if p2.Workers() != 5 {
		t.Fatalf("Workers() = %d, want 5", p2.Workers())
	}
}

func BenchmarkRunRoundTrip(b *testing.B) {
	p := New(0)
	defer p.Close()
	sink := make([]int, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Run(64, func(t int) { sink[t]++ })
	}
}
